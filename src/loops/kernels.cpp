#include "loops/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"
#include "support/prng.hpp"

namespace perturb::loops {

namespace {

/// Checksum that is stable across summation orders used here (sequential).
double checksum(const std::vector<double>& v, std::int64_t count) {
  double acc = 0.0;
  const auto limit = std::min<std::int64_t>(count,
                                            static_cast<std::int64_t>(v.size()));
  for (std::int64_t i = 0; i < limit; ++i)
    acc += v[static_cast<std::size_t>(i)] * static_cast<double>((i % 7) + 1);
  return acc;
}

void fill(std::vector<double>& v, std::size_t size, support::Xoshiro256& rng) {
  v.resize(size);
  for (auto& e : v) e = rng.uniform(0.01, 1.0);
}

void fill_idx(std::vector<std::int64_t>& v, std::size_t size, std::int64_t lo,
              std::int64_t hi, support::Xoshiro256& rng) {
  v.resize(size);
  for (auto& e : v)
    e = lo + static_cast<std::int64_t>(rng.below(
                 static_cast<std::uint64_t>(hi - lo)));
}

}  // namespace

LfkData::LfkData(std::int64_t n, std::uint64_t seed) : n_(n), seed_(seed) {
  PERTURB_CHECK(n >= 32);
  reset();
}

void LfkData::reset() {
  support::Xoshiro256 rng(seed_);
  const auto n = static_cast<std::size_t>(n_);
  const std::size_t pad = 64;
  fill(x, n + pad, rng);
  fill(y, n + pad, rng);
  fill(z, n + pad, rng);
  fill(u, n + pad, rng);
  fill(v, n + pad, rng);
  fill(w, n + pad, rng);
  fill(g, n + pad, rng);
  fill(xz, n + pad, rng);
  fill(px, 16 * (n / 2 + pad), rng);
  fill(cx, 16 * (n / 2 + pad), rng);
  fill(zx, n + pad, rng);
  fill(vy, n + pad, rng);
  fill(vs, n + pad, rng);
  const std::size_t jn = 64 + 2;  // minor dimension for the 2-D hydro kernels
  fill(za, jn * (n / 8 + pad), rng);
  fill(zb, jn * (n / 8 + pad), rng);
  fill(zm, jn * (n / 8 + pad), rng);
  fill(zp, jn * (n / 8 + pad), rng);
  fill(zq, jn * (n / 8 + pad), rng);
  fill(zr, jn * (n / 8 + pad), rng);
  fill(zu, jn * (n / 8 + pad), rng);
  fill(zv, jn * (n / 8 + pad), rng);
  fill(zz, jn * (n / 8 + pad), rng);
  fill_idx(ix, n + pad, 1, static_cast<std::int64_t>(n / 2), rng);
  fill_idx(ir, n + pad, 1, static_cast<std::int64_t>(n / 2), rng);
  fill(vx, n + pad, rng);
  fill(xx, n + pad, rng);
  fill(grd, n + pad, rng);
  // Keep grid coordinates monotone for the PIC kernels.
  for (std::size_t i = 1; i < grd.size(); ++i) grd[i] = grd[i - 1] + 0.5 + grd[i];
  r = 4.86;
  t = 276.0;
  q = 0.0;
  sig = 0.5;
  stb5 = 0.1;
}

namespace {

using I = std::int64_t;
using D = LfkData;

std::size_t ix2(I i, I j, I minor) {
  return static_cast<std::size_t>(i * minor + j);
}

// Kernel 1 — hydro fragment.
double k1(D& d) {
  const I n = d.n();
  for (I k = 0; k < n; ++k)
    d.x[size_t(k)] =
        d.q + d.y[size_t(k)] * (d.r * d.z[size_t(k + 10)] +
                                d.t * d.z[size_t(k + 11)]);
  return checksum(d.x, n);
}

// Kernel 2 — ICCG excerpt (incomplete Cholesky conjugate gradient).
double k2(D& d) {
  const I n = d.n();
  I ipntp = 0;
  for (I m = n; m > 1; m /= 2) {
    const I ipnt = ipntp;
    ipntp += m;
    if (ipntp + m / 2 >= static_cast<I>(d.x.size())) break;
    I i = ipntp - 1;
    for (I k = ipnt + 1; k < ipntp; k += 2) {
      ++i;
      d.x[size_t(i)] = d.x[size_t(k)] -
                       d.v[size_t(k)] * d.x[size_t(k - 1)] -
                       d.v[size_t(k + 1)] * d.x[size_t(k + 1)];
    }
  }
  return checksum(d.x, n);
}

// Kernel 3 — inner product.  The DOACROSS case study loop: the accumulation
// carries a distance-1 dependence through q.
double k3(D& d) {
  const I n = d.n();
  double q = 0.0;
  for (I k = 0; k < n; ++k) q += d.z[size_t(k)] * d.x[size_t(k)];
  d.q = q;
  return q;
}

// Kernel 4 — banded linear equations.
double k4(D& d) {
  const I n = d.n();
  const I m = (1001 - 7) / 2;
  double acc = 0.0;
  for (I k = 6; k < n; k += m) {
    I lw = k - 6;
    double temp = d.x[size_t(k - 1)];
    for (I j = 4; j < n; j += 5) {
      temp -= d.xz[size_t(lw)] * d.y[size_t(j)];
      ++lw;
      if (lw >= static_cast<I>(d.xz.size())) break;
    }
    d.x[size_t(k - 1)] = d.y[size_t(4)] * temp;
    acc += d.x[size_t(k - 1)];
  }
  return acc + checksum(d.x, n);
}

// Kernel 5 — tri-diagonal elimination, below diagonal.
double k5(D& d) {
  const I n = d.n();
  for (I i = 1; i < n; ++i)
    d.x[size_t(i)] = d.z[size_t(i)] * (d.y[size_t(i)] - d.x[size_t(i - 1)]);
  return checksum(d.x, n);
}

// Kernel 6 — general linear recurrence equations.  The y subscript strides
// by 8 up to 8 * (min(n, 64) - 1) and wraps at y's length, which only small
// data sizes (n < 441) reach.
double k6(D& d) {
  const I n = std::min<I>(d.n(), 64);  // O(n^2); classic uses n=64
  const std::size_t ny = d.y.size();
  for (I i = 1; i < n; ++i) {
    double s = 0.0;
    for (I j = 0; j < i; ++j)
      s += d.zx[size_t(j)] * d.y[size_t((i - j) * 8) % ny];
    d.w[size_t(i)] = d.w[size_t(i)] + 0.01 + s;
  }
  return checksum(d.w, n);
}

// Kernel 7 — equation of state fragment.
double k7(D& d) {
  const I n = d.n();
  for (I k = 0; k < n; ++k) {
    d.x[size_t(k)] =
        d.u[size_t(k)] +
        d.r * (d.z[size_t(k)] + d.r * d.y[size_t(k)]) +
        d.t * (d.u[size_t(k + 3)] +
               d.r * (d.u[size_t(k + 2)] + d.r * d.u[size_t(k + 1)]) +
               d.t * (d.u[size_t(k + 6)] +
                      d.q * (d.u[size_t(k + 5)] + d.q * d.u[size_t(k + 4)])));
  }
  return checksum(d.x, n);
}

// Kernel 8 — ADI integration (condensed to the classic two-plane sweep).
double k8(D& d) {
  const I nl = 2;
  const I ny = std::min<I>(d.n() / 8, 100);
  const I jn = 64;
  double acc = 0.0;
  for (I l = 0; l < nl; ++l) {
    for (I ky = 1; ky < ny; ++ky) {
      for (I kx = 1; kx < jn - 1; ++kx) {
        const std::size_t i = ix2(ky, kx, jn + 2);
        const double du1 = d.zu[i + 1] - d.zu[i - 1];
        const double du2 = d.zv[i + 1] - d.zv[i - 1];
        const double du3 = d.zz[i + 1] - d.zz[i - 1];
        d.za[i] = d.zb[i] + d.sig * (du1 + du2 + du3) * d.zm[i];
        d.zr[i] = d.za[i] * d.stb5 + d.zq[i];
        acc += d.zr[i] * 1e-3;
      }
    }
  }
  return acc;
}

// Kernel 9 — integrate predictors.
double k9(D& d) {
  const I n = std::min<I>(d.n(), static_cast<I>(d.px.size()) / 16 - 1);
  for (I i = 0; i < n; ++i) {
    double* p = &d.px[size_t(i * 16)];
    const double* c = &d.cx[size_t(i * 16)];
    p[0] = d.dm28 * p[12] + d.dm27 * p[11] + d.dm26 * p[10] +
           d.dm25 * p[9] + d.dm24 * p[8] + d.dm23 * p[7] +
           d.dm22 * p[6] + c[0] * (p[4] + p[5]) + p[2];
  }
  return checksum(d.px, n * 16);
}

// Kernel 10 — difference predictors.
double k10(D& d) {
  const I n = std::min<I>(d.n(), static_cast<I>(d.px.size()) / 16 - 1);
  for (I i = 0; i < n; ++i) {
    double* p = &d.px[size_t(i * 16)];
    const double ar = d.cx[size_t(i * 16) + 4];
    const double br = ar - p[4];
    p[4] = ar;
    const double cr = br - p[5];
    p[5] = br;
    p[6] = cr - p[6];
  }
  return checksum(d.px, n * 16);
}

// Kernel 11 — first sum (prefix sum).
double k11(D& d) {
  const I n = d.n();
  d.x[0] = d.y[0];
  for (I k = 1; k < n; ++k) d.x[size_t(k)] = d.x[size_t(k - 1)] + d.y[size_t(k)];
  return checksum(d.x, n);
}

// Kernel 12 — first difference.
double k12(D& d) {
  const I n = d.n();
  for (I k = 0; k < n; ++k)
    d.x[size_t(k)] = d.y[size_t(k + 1)] - d.y[size_t(k)];
  return checksum(d.x, n);
}

// Kernel 13 — 2-D particle-in-cell.
double k13(D& d) {
  const I n = std::min<I>(d.n() / 2, static_cast<I>(d.ix.size()) - 1);
  double acc = 0.0;
  for (I ip = 0; ip < n; ++ip) {
    const I i1 = std::clamp<I>(d.ix[size_t(ip)], 1, n - 1);
    const I j1 = std::clamp<I>(d.ir[size_t(ip)], 1, n - 1);
    d.vx[size_t(ip)] += d.u[size_t(i1)] + d.v[size_t(j1)];
    d.xx[size_t(ip)] += d.vx[size_t(ip)];
    d.y[size_t(i1)] += 1.0;
    acc += d.xx[size_t(ip)];
  }
  return acc;
}

// Kernel 14 — 1-D particle-in-cell.
double k14(D& d) {
  const I n = std::min<I>(d.n(), static_cast<I>(d.vx.size()) - 1);
  double acc = 0.0;
  for (I k = 0; k < n; ++k) {
    const I ixk = std::clamp<I>(static_cast<I>(d.grd[size_t(k)]) % n, 1, n - 1);
    d.xx[size_t(k)] = d.grd[size_t(ixk)] + (d.x[size_t(k)] - 0.5);
    d.vx[size_t(k)] += d.xx[size_t(k)] * 1e-3;
    acc += d.vx[size_t(k)];
  }
  return acc;
}

// Kernel 15 — casual Fortran: 2-D array sweep with conditionals.
double k15(D& d) {
  const I ng = 7;
  const I nz = std::min<I>(d.n() / 8, 100);
  const I jn = 64 + 2;
  double acc = 0.0;
  for (I j = 1; j < ng; ++j) {
    for (I k = 1; k < nz - 1; ++k) {
      const std::size_t i = ix2(j, k, jn);
      if (d.vy[size_t(k)] > 0.0) {
        d.vs[size_t(k)] =
            d.za[i] > 0.0 ? d.za[i] + d.zb[i] : d.zb[i] - d.za[i];
      } else {
        d.vs[size_t(k)] = d.za[i] * d.zb[i];
      }
      acc += d.vs[size_t(k)];
    }
  }
  return acc;
}

// Kernel 16 — Monte Carlo search loop.
double k16(D& d) {
  const I n = d.n();
  I m = 0;
  I hits = 0;
  for (I k = 0; k < n; ++k) {
    const I j = (k * 1731 + 17) % n;
    if (d.z[size_t(j)] < d.x[size_t(k)]) {
      ++hits;
      m = j;
    }
  }
  return static_cast<double>(hits) + static_cast<double>(m) * 1e-6;
}

// Kernel 17 — implicit, conditional computation.  The second DOACROSS case
// study loop: the recurrence through scale/xnm is a serial chain with
// data-dependent branches.
double k17(D& d) {
  const I n = d.n();
  double scale = 5.0 / 3.0;
  double xnm = 1.0 / 3.0;
  double e6 = 1.03 / 3.07;
  I i = n - 1;
  while (i >= 0) {
    const double e3 = d.xz[size_t(i)] * scale + e6;
    const double xnei = d.xx[size_t(i)];
    double xnc = scale * d.x[size_t(i)];
    if (xnm * 4.0 > xnc || xnei > xnc) {
      e6 = xnm * d.vs[size_t(i)] + e3 * 1e-3;
      d.vx[size_t(i)] = e6;
      xnm = xnei - 1e-3 * xnm;
    } else {
      e6 = e3 * xnm - 1e-4 * xnc;
      d.vx[size_t(i)] = e6;
      xnm = xnei;
    }
    --i;
  }
  return checksum(d.vx, n) + xnm + e6;
}

// Kernel 18 — 2-D explicit hydrodynamics fragment.
double k18(D& d) {
  const I kn = std::min<I>(d.n() / 8, 100);
  const I jn = 64;
  const I minor = jn + 2;
  for (I k = 1; k < kn - 1; ++k) {
    for (I j = 1; j < jn; ++j) {
      const std::size_t i = ix2(k, j, minor);
      d.za[i] = (d.zp[i + minor] + d.zq[i + minor] - d.zp[i] - d.zq[i]) *
                (d.zr[i] + d.zr[i - 1]) /
                (d.zm[i] + d.zm[i + minor] + 1.0);
      d.zb[i] = (d.zp[i] + d.zq[i] - d.zp[i - 1] - d.zq[i - 1]) *
                (d.zr[i] + d.zr[i - minor]) /
                (d.zm[i] + d.zm[i - 1] + 1.0);
    }
  }
  for (I k = 1; k < kn - 1; ++k) {
    for (I j = 1; j < jn; ++j) {
      const std::size_t i = ix2(k, j, minor);
      d.zu[i] += d.stb5 * (d.za[i] * (d.zz[i] - d.zz[i + 1]) -
                           d.za[i - 1] * (d.zz[i] - d.zz[i - 1]));
      d.zv[i] += d.stb5 * (d.zb[i] * (d.zz[i] - d.zz[i - minor]) -
                           d.zb[i - minor] * (d.zz[i] - d.zz[i + minor]));
    }
  }
  return checksum(d.zu, kn * minor) + checksum(d.zv, kn * minor);
}

// Kernel 19 — general linear recurrence equations (two sweeps).
double k19(D& d) {
  const I n = std::min<I>(d.n(), 101);
  // The recurrence through stb5 must stay contractive for arbitrary seeded
  // data, so the feedback term is scaled down (the classic kernel relies on
  // carefully sized inputs).
  double stb5 = d.stb5;
  for (I k = 0; k < n; ++k) {
    d.x[size_t(k)] = d.g[size_t(k)] + d.r * d.z[size_t(k)] + 0.035 * stb5;
    stb5 = 0.5 * (d.x[size_t(k)] - stb5);
  }
  for (I i = 0; i < n; ++i) {
    const I k = n - i - 1;
    d.x[size_t(k)] = d.g[size_t(k)] + d.r * d.z[size_t(k)] + 0.035 * stb5;
    stb5 = 0.5 * (d.x[size_t(k)] - stb5);
  }
  return checksum(d.x, n) + stb5;
}

// Kernel 20 — discrete ordinates transport.
double k20(D& d) {
  const I n = d.n();
  double xx = 0.01;
  for (I k = 0; k < n; ++k) {
    const double di = d.y[size_t(k)] - d.g[size_t(k)] /
                                           (xx + d.z[size_t(k)] + 1e-9);
    const double dn =
        std::clamp(di > 0.0 ? d.z[size_t(k)] / di : 0.2, 0.1, 0.2);
    d.x[size_t(k)] = ((d.w[size_t(k)] + d.v[size_t(k)] * dn) * xx +
                      d.u[size_t(k)]) /
                     (d.vx[size_t(k)] + d.v[size_t(k)] * dn + 1.0);
    xx = (d.x[size_t(k)] - d.y[size_t(k)]) * dn + xx;
  }
  return checksum(d.x, n) + xx;
}

// Kernel 21 — matrix * matrix product.
double k21(D& d) {
  const I m = 25;
  const I minor = 64 + 2;
  for (I k = 0; k < m; ++k)
    for (I i = 0; i < m; ++i)
      for (I j = 0; j < m; ++j)
        d.px[ix2(j, i, minor) % d.px.size()] +=
            d.vy[size_t(k)] * d.cx[ix2(j, k, minor) % d.cx.size()] * 1e-3;
  return checksum(d.px, m * minor);
}

// Kernel 22 — Planckian distribution.
double k22(D& d) {
  const I n = d.n();
  const double expmax = 20.0;
  d.u[size_t(n - 1)] = 0.99 * expmax * d.v[size_t(n - 1)];
  for (I k = 0; k < n; ++k) {
    d.y[size_t(k)] = d.u[size_t(k)] / (d.v[size_t(k)] + 1e-9);
    d.w[size_t(k)] =
        d.x[size_t(k)] / (std::exp(std::min(d.y[size_t(k)], expmax)) - 0.99);
  }
  return checksum(d.w, n);
}

// Kernel 23 — 2-D implicit hydrodynamics fragment.
double k23(D& d) {
  const I kn = std::min<I>(d.n() / 8, 100);
  const I jn = 64;
  const I minor = jn + 2;
  for (I j = 1; j < jn; ++j) {
    for (I k = 1; k < kn - 1; ++k) {
      const std::size_t i = ix2(k, j, minor);
      const double qa = d.za[i + minor] * d.zr[i] + d.za[i - minor] * d.zb[i] +
                        d.za[i + 1] * d.zu[i] + d.za[i - 1] * d.zv[i] +
                        d.zz[i];
      d.za[i] += 0.175 * (qa - d.za[i]);
    }
  }
  return checksum(d.za, kn * minor);
}

// Kernel 24 — find location of first minimum in array.
double k24(D& d) {
  const I n = d.n();
  d.x[size_t(n / 2)] = -1.0e10;
  I m = 0;
  for (I k = 1; k < n; ++k)
    if (d.x[size_t(k)] < d.x[size_t(m)]) m = k;
  return static_cast<double>(m);
}

}  // namespace

double run_kernel(int k, LfkData& data) {
  switch (k) {
    case 1: return k1(data);
    case 2: return k2(data);
    case 3: return k3(data);
    case 4: return k4(data);
    case 5: return k5(data);
    case 6: return k6(data);
    case 7: return k7(data);
    case 8: return k8(data);
    case 9: return k9(data);
    case 10: return k10(data);
    case 11: return k11(data);
    case 12: return k12(data);
    case 13: return k13(data);
    case 14: return k14(data);
    case 15: return k15(data);
    case 16: return k16(data);
    case 17: return k17(data);
    case 18: return k18(data);
    case 19: return k19(data);
    case 20: return k20(data);
    case 21: return k21(data);
    case 22: return k22(data);
    case 23: return k23(data);
    case 24: return k24(data);
    default:
      PERTURB_CHECK_MSG(false, "unknown Livermore kernel number");
      return 0.0;
  }
}

const char* kernel_name(int k) {
  switch (k) {
    case 1: return "Hydro Fragment";
    case 2: return "ICCG Excerpt";
    case 3: return "Inner Product";
    case 4: return "Banded Linear Equations";
    case 5: return "Tri-Diagonal Elimination";
    case 6: return "General Linear Recurrence";
    case 7: return "Equation of State Fragment";
    case 8: return "ADI Integration";
    case 9: return "Integrate Predictors";
    case 10: return "Difference Predictors";
    case 11: return "First Sum";
    case 12: return "First Difference";
    case 13: return "2-D Particle in Cell";
    case 14: return "1-D Particle in Cell";
    case 15: return "Casual Fortran";
    case 16: return "Monte Carlo Search";
    case 17: return "Implicit, Conditional Computation";
    case 18: return "2-D Explicit Hydrodynamics";
    case 19: return "General Linear Recurrence II";
    case 20: return "Discrete Ordinates Transport";
    case 21: return "Matrix Product";
    case 22: return "Planckian Distribution";
    case 23: return "2-D Implicit Hydrodynamics";
    case 24: return "First Minimum";
    default: return "Unknown";
  }
}

bool is_doacross_kernel(int k) noexcept { return k == 3 || k == 4 || k == 17; }

const std::vector<int>& sequential_study_loops() {
  static const std::vector<int> loops = {1, 2, 6, 7, 8, 13, 16, 20, 22};
  return loops;
}

const std::vector<int>& doacross_study_loops() {
  static const std::vector<int> loops = {3, 4, 17};
  return loops;
}

}  // namespace perturb::loops
