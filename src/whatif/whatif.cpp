#include "whatif/whatif.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "support/metrics.hpp"
#include "support/text.hpp"
#include "trace/event.hpp"

namespace perturb::whatif {

namespace {

using trace::Event;
using trace::EventKind;
using trace::ObjectId;
using trace::ProcId;
using trace::Trace;
using trace::TraceIndex;

constexpr std::size_t kNone = TraceIndex::npos;

const support::Counter& experiments_counter() {
  static const support::Counter c("whatif.experiments");
  return c;
}
const support::Counter& frontier_counter() {
  static const support::Counter c("whatif.frontier.events");
  return c;
}
const support::Counter& memo_counter() {
  static const support::Counter c("whatif.memo.hits");
  return c;
}
const support::Gauge& edges_gauge() {
  static const support::Gauge g("whatif.dag.edges");
  return g;
}

/// Events whose times other events' evaluations read: they must keep an
/// individually tracked time (be anchors) even without cross deps of their
/// own.
bool is_dependency_source(EventKind kind) {
  return kind == EventKind::kAdvance || kind == EventKind::kLockRelease ||
         kind == EventKind::kBarrierArrive || kind == EventKind::kLoopBegin;
}

/// Cost removed from `d` by a `pct`-percent virtual speedup.  Truncating
/// integer division, applied per event — the arithmetic the sparse and the
/// lane-batched evaluations (and the test oracle) share for bit-identity.
Tick removal_of(Tick d, std::int64_t pct) { return (d * pct) / 100; }

}  // namespace

std::optional<WhatIfSpec> parse_whatif_spec(std::string_view spec,
                                            std::string* error) {
  const auto fail = [&](std::string msg) -> std::optional<WhatIfSpec> {
    if (error != nullptr) *error = std::move(msg);
    return std::nullopt;
  };
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string_view::npos)
    return fail(support::strf("--whatif expects <site>:<pct>, got '%.*s'",
                              static_cast<int>(spec.size()), spec.data()));
  const std::string_view site = spec.substr(0, colon);
  const std::string_view pct = spec.substr(colon + 1);
  if (site.empty())
    return fail(support::strf("--whatif site name is empty in '%.*s'",
                              static_cast<int>(spec.size()), spec.data()));
  if (pct.empty())
    return fail(support::strf("--whatif pct is empty in '%.*s'",
                              static_cast<int>(spec.size()), spec.data()));
  std::int64_t value = 0;
  for (const char c : pct) {
    if (c < '0' || c > '9')
      return fail(
          support::strf("--whatif pct must be an integer, got '%.*s'",
                        static_cast<int>(pct.size()), pct.data()));
    value = value * 10 + (c - '0');
    if (value > 1000) break;  // avoid overflow on absurd digit strings
  }
  if (value < 1 || value > 100)
    return fail(support::strf("--whatif pct must be in (0,100], got '%.*s'",
                              static_cast<int>(pct.size()), pct.data()));
  return WhatIfSpec{std::string(site), value};
}

WhatIfDag::WhatIfDag(const TraceIndex& idx, const SiteRegistry& sites)
    : index_(&idx), sites_(&sites) {
  const Trace& t = idx.trace();
  const std::size_t n = t.size();
  const std::size_t procs = idx.num_procs();

  // -- classify anchors ----------------------------------------------------
  // Anchors: events with cross dependencies, dependency sources, and each
  // processor's chain endpoints.  Everything else is a plain chain-only
  // event that folds into a gap.  This pass marks the anchors and counts
  // them and their cross edges, so every per-anchor array is allocated
  // once, at its final size.
  std::vector<std::size_t> last_event(procs, kNone);
  for (std::size_t p = 0; p < procs; ++p) {
    const auto evs = idx.events_of(static_cast<ProcId>(p));
    if (!evs.empty()) last_event[p] = evs.back();
  }
  slot_or_owner_.assign(n, knone);
  std::size_t a_n = 0, e_n = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t preds = 0;
    idx.for_each_cross_dep(i, [&](std::size_t) { ++preds; });
    const Event& e = t[i];
    if (preds > 0 || is_dependency_source(e.kind) ||
        idx.prev_on_proc(i) == kNone || last_event[e.proc] == i) {
      slot_or_owner_[i] = 0;  // an anchor; numbered below
      ++a_n;
      e_n += preds;
    }
  }

  // -- anchor slots, local costs, cross edges (trace order) ----------------
  // Trace order is topological, so an anchor's predecessors all have slots
  // when it is numbered and its cross edges go straight into the CSR.
  // d_i = t0[i] - max over predecessors of t0 (t0[i] with none), and the
  // gap before an anchor telescopes to t0[immediate predecessor] -
  // t0[previous anchor]; baseline re-evaluation then reproduces the
  // recovered times exactly.
  event_of_.reserve(a_n);
  chain_.reserve(a_n);
  gap_.reserve(a_n);
  d_.reserve(a_n);
  t0_.reserve(a_n);
  proc_.reserve(a_n);
  pred_off_.reserve(a_n + 1);
  pred_.reserve(e_n);
  pred_off_.push_back(0);
  std::vector<std::uint32_t> last_anchor(procs, knone);
  for (std::size_t i = 0; i < n; ++i) {
    if (slot_or_owner_[i] == knone) continue;
    const Event& e = t[i];
    const auto s = static_cast<std::uint32_t>(event_of_.size());
    const std::uint32_t q = last_anchor[e.proc];
    const std::size_t prev = idx.prev_on_proc(i);
    bool any = prev != kNone;
    Tick base = any ? t[prev].time : 0;
    idx.for_each_cross_dep(i, [&](std::size_t p) {
      pred_.push_back(slot_or_owner_[p]);
      if (!any || t[p].time > base) base = t[p].time;
      any = true;
    });
    pred_off_.push_back(static_cast<std::uint32_t>(pred_.size()));
    slot_or_owner_[i] = s;
    event_of_.push_back(static_cast<std::uint32_t>(i));
    chain_.push_back(q);
    // Plain events still read knone here: their owners come next.
    gap_.push_back(q != knone && slot_or_owner_[prev] == knone
                       ? t[prev].time - t0_[q]
                       : 0);
    d_.push_back(e.time - base);
    t0_.push_back(e.time);
    proc_.push_back(e.proc);
    last_anchor[e.proc] = s;
  }
  w0_.assign(a_n, 0);

  // Each plain event's owner is the next anchor on its processor; every
  // processor's last event is an anchor, so each plain event has one.
  std::fill(last_anchor.begin(), last_anchor.end(), knone);
  for (std::size_t i = n; i-- > 0;) {
    std::uint32_t& v = slot_or_owner_[i];
    if (v == knone)
      v = last_anchor[t[i].proc];
    else
      last_anchor[t[i].proc] = v;
  }

  // -- successor table -----------------------------------------------------
  succ_off_.assign(a_n + 1, 0);
  for (std::size_t s = 0; s < a_n; ++s) {
    if (chain_[s] != knone) ++succ_off_[chain_[s] + 1];
    for (std::uint32_t c = pred_off_[s]; c < pred_off_[s + 1]; ++c)
      ++succ_off_[pred_[c] + 1];
  }
  for (std::size_t s = 0; s < a_n; ++s) succ_off_[s + 1] += succ_off_[s];
  succ_.assign(succ_off_[a_n], knone);
  std::vector<std::uint32_t> fill(succ_off_.begin(), succ_off_.end() - 1);
  for (std::size_t s = 0; s < a_n; ++s) {
    const std::uint32_t me = static_cast<std::uint32_t>(s);
    if (chain_[s] != knone) succ_[fill[chain_[s]]++] = me;
    for (std::uint32_t c = pred_off_[s]; c < pred_off_[s + 1]; ++c)
      succ_[fill[pred_[c]]++] = me;
  }
  edges_ = succ_.size();

  // -- baseline waiting ----------------------------------------------------
  // w = (t0 - d) - chain candidate: how long the chain stalled on a cross
  // dependency before this anchor.  Plain events wait 0 by construction.
  for (std::size_t s = 0; s < a_n; ++s) {
    if (chain_[s] == knone) continue;
    w0_[s] = (t0_[s] - d_[s]) - (t0_[chain_[s]] + gap_[s]);
  }

  // -- per-processor endpoints and baseline metrics ------------------------
  first_slot_.assign(procs, knone);
  last_slot_.assign(procs, knone);
  for (std::size_t p = 0; p < procs; ++p) {
    const auto evs = idx.events_of(static_cast<ProcId>(p));
    if (evs.empty()) continue;
    first_slot_[p] = slot_or_owner_[evs.front()];
    last_slot_[p] = slot_or_owner_[evs.back()];
  }
  Tick lo = 0, hi = 0;
  bool seen = false;
  for (std::size_t p = 0; p < first_slot_.size(); ++p) {
    if (first_slot_[p] == knone) continue;
    const Tick f = t0_[first_slot_[p]];
    const Tick l = t0_[last_slot_[p]];
    if (!seen || f < lo) lo = f;
    if (!seen || l > hi) hi = l;
    seen = true;
  }
  baseline_.makespan = seen ? hi - lo : 0;
  baseline_.waiting.assign(t.info().num_procs, 0);
  for (std::size_t s = 0; s < a_n; ++s)
    if (proc_[s] < baseline_.waiting.size())
      baseline_.waiting[proc_[s]] += w0_[s];
  const auto baseline_time = [&](std::uint32_t s) { return t0_[s]; };
  baseline_.critical_path = walk_critical_path(
      baseline_time, [&](std::uint32_t s) {
        return chain_binds(s, baseline_time, [](std::uint32_t) -> Tick {
          return 0;
        });
      });

  // -- site membership -----------------------------------------------------
  // One trace-order pass files the per-event sites and the lock sites.
  //   A statement, sync, semaphore or barrier site lists its own events by
  //   kind (for statements, the exit, which owns the statement's duration).
  //   A lock site holds every event after an acquisition through the
  //   release, on the holding processor: the acquire is excluded (its
  //   waiting is not scaled away) and the release included; a re-acquire
  //   of a held lock changes nothing, a release of an unheld one likewise,
  //   and a lock still held at the end runs to the processor's last event.
  //   A range is filed when its lock is acquired, so a site's ranges come
  //   out in trace order and seeding walks the trace forward once.
  members_.resize(sites.size());
  std::vector<std::uint32_t> pos(procs, 0);  // events seen, per processor
  // Per processor: (site, its open range in members_[site].held).
  std::vector<std::vector<std::pair<SiteId, std::size_t>>> open_ranges(procs);
  for (std::size_t i = 0; i < n; ++i) {
    const Event& e = t[i];
    const std::uint32_t k = pos[e.proc]++;
    switch (e.kind) {
      case EventKind::kLockAcquire:
      case EventKind::kLockRelease: {
        const SiteId site = sites.site_of_event(e);
        if (site == SiteRegistry::npos) break;
        std::vector<HeldRange>& ranges =
            members_[static_cast<std::size_t>(site)].held;
        auto& holding = open_ranges[e.proc];
        const auto it =
            std::find_if(holding.begin(), holding.end(),
                         [&](const auto& h) { return h.first == site; });
        if (e.kind == EventKind::kLockAcquire && it == holding.end()) {
          holding.emplace_back(site, ranges.size());
          ranges.push_back({e.proc, k + 1, k});  // empty until closed
        } else if (e.kind == EventKind::kLockRelease && it != holding.end()) {
          ranges[it->second].last = k;
          holding.erase(it);
        }
        break;
      }
      case EventKind::kStmtExit:
      case EventKind::kAdvance:
      case EventKind::kAwaitBegin:
      case EventKind::kAwaitEnd:
      case EventKind::kSemAcquire:
      case EventKind::kSemRelease:
      case EventKind::kBarrierArrive:
      case EventKind::kBarrierDepart: {
        const SiteId site = sites.site_of_event(e);
        if (site != SiteRegistry::npos)
          members_[static_cast<std::size_t>(site)].events.push_back(
              static_cast<std::uint32_t>(i));
        break;
      }
      default:
        break;
    }
  }
  // Ranges still open run to their processor's last event (and stay empty
  // when the acquire is that event).
  for (std::size_t p = 0; p < procs; ++p)
    for (const auto& [site, r] : open_ranges[p])
      members_[static_cast<std::size_t>(site)].held[r].last = pos[p] - 1;
  for (SiteMembers& m : members_) m.events.shrink_to_fit();

  // A loop site: every event, on any processor, inside one of its episodes
  // (begin, end] (a truncated episode runs to the end of the trace), as
  // the episodes merged into disjoint ascending ranges.
  struct Episode {
    SiteId site;
    std::size_t first, last;
  };
  std::vector<Episode> episodes;
  for (const auto& span : idx.loops()) {
    if (span.begin_index == kNone) continue;
    const std::size_t last = span.end_index == kNone ? n - 1 : span.end_index;
    const SiteId site = sites.find({analysis::SiteKind::kLoop, span.object});
    if (span.begin_index < last && site != SiteRegistry::npos)
      episodes.push_back({site, span.begin_index + 1, last});
  }
  std::sort(episodes.begin(), episodes.end(),
            [](const Episode& a, const Episode& b) {
              return a.site != b.site ? a.site < b.site : a.first < b.first;
            });
  for (std::size_t r = 0; r < episodes.size();) {
    const Episode& head = episodes[r];
    std::size_t last = head.last;
    for (++r; r < episodes.size() && episodes[r].site == head.site &&
              episodes[r].first <= last + 1;
         ++r)
      last = std::max(last, episodes[r].last);
    members_[static_cast<std::size_t>(head.site)].loop_ranges.push_back(
        {static_cast<std::uint32_t>(head.first),
         static_cast<std::uint32_t>(last)});
  }

  edges_gauge().record_max(static_cast<std::int64_t>(edges_));
}

template <typename AnchorFn, typename PlainFn>
void WhatIfDag::for_each_member(SiteId site, AnchorFn&& on_anchor,
                                PlainFn&& on_plain) const {
  const Trace& t = index_->trace();
  const auto visit = [&](std::size_t i) {
    const std::uint32_t v = slot_or_owner_[i];
    if (event_of_[v] == i)
      on_anchor(v);
    else
      on_plain(v, t[i].time - t[index_->prev_on_proc(i)].time);
  };
  const SiteMembers& m = members_[static_cast<std::size_t>(site)];
  for (const std::uint32_t i : m.events) visit(i);
  for (const TraceRange& r : m.loop_ranges)
    for (std::size_t i = r.first; i <= r.last; ++i) visit(i);
  for (const HeldRange& h : m.held) {
    const auto evs = index_->events_of(h.proc);
    for (std::size_t k = h.first; k <= h.last; ++k) visit(evs[k]);
  }
}

template <typename TimeFn, typename GapFn>
bool WhatIfDag::chain_binds(std::uint32_t s, TimeFn&& time_of,
                            GapFn&& gap_removal) const {
  const Tick chain_t = time_of(chain_[s]) + gap_[s] - gap_removal(s);
  for (std::uint32_t c = pred_off_[s]; c < pred_off_[s + 1]; ++c)
    if (time_of(pred_[c]) > chain_t) return false;
  return true;
}

template <typename TimeFn, typename BindsFn>
Tick WhatIfDag::walk_critical_path(TimeFn&& time_of,
                                   BindsFn&& chain_binds_at) const {
  // End anchor: the latest per-processor chain endpoint; ties go to the
  // larger trace index (mirrors critical_path's argmax scan).
  std::uint32_t end = knone;
  for (std::size_t p = 0; p < last_slot_.size(); ++p) {
    const std::uint32_t s = last_slot_[p];
    if (s == knone) continue;
    if (end == knone || time_of(s) > time_of(end) ||
        (time_of(s) == time_of(end) && event_of_[s] > event_of_[end]))
      end = s;
  }
  if (end == knone) return 0;

  std::uint32_t cur = end;
  while (true) {
    if (chain_[cur] != knone && chain_binds_at(cur)) {
      cur = chain_[cur];
      continue;
    }
    std::uint32_t best = knone;
    Tick best_t = 0;
    for (std::uint32_t c = pred_off_[cur]; c < pred_off_[cur + 1]; ++c) {
      const Tick pt = time_of(pred_[c]);
      if (best == knone || pt > best_t) {
        best = pred_[c];
        best_t = pt;
      }
    }
    if (best == knone) break;
    cur = best;
  }
  return time_of(end) - time_of(cur);
}

struct WhatIfEngine::Scratch {
  std::vector<Tick> time, gapdel, removal, wait;
  std::vector<std::uint32_t> time_ep, gapdel_ep, removal_ep, queued_ep;
  std::vector<std::uint32_t> heap;
  std::uint32_t epoch = 0;

  void ensure(std::size_t anchors, std::size_t procs) {
    if (time.size() != anchors) {
      time.assign(anchors, 0);
      gapdel.assign(anchors, 0);
      removal.assign(anchors, 0);
      time_ep.assign(anchors, 0);
      gapdel_ep.assign(anchors, 0);
      removal_ep.assign(anchors, 0);
      queued_ep.assign(anchors, 0);
      epoch = 0;
    }
    wait.assign(procs, 0);
  }
};

/// Scratch for one dense sweep block: lane-minor time rows of the block's
/// row width W (slot s, lane l at index s * W + l), so the per-anchor chain
/// and predecessor loads are shared by all lanes of a cache line, plus one
/// lane mask byte per anchor for each of: the anchor's own cost is scaled,
/// its time row holds seeded gap removals, its chain binds (set by the
/// sweep).  The seed masks are cleared at the start of every block, so
/// blocks of any lane count and row width can share one scratch.
struct WhatIfEngine::BatchScratch {
  std::vector<Tick> time, wait;
  std::vector<std::uint8_t> scaled, gapped, binds;

  void ensure(std::size_t anchors, std::size_t procs, std::size_t width) {
    const std::size_t cells = anchors * width;
    if (time.size() != cells) {
      // Free narrower rows before allocating wider ones, so the two never
      // coexist.
      if (time.capacity() < cells) time = {};
      time.assign(cells, 0);
      binds.assign(anchors, 0);
    }
    scaled.assign(anchors, 0);
    gapped.assign(anchors, 0);
    wait.assign(procs * width, 0);
  }
};

WhatIfEngine::WhatIfEngine(const WhatIfDag& dag) : dag_(&dag) {}
WhatIfEngine::~WhatIfEngine() = default;

template <std::size_t kW>
void WhatIfEngine::evaluate_block(const WhatIfPlan* plans, std::size_t lanes,
                                  BatchScratch& sc, WhatIfResult* out) const {
  static_assert(kW <= kLaneWidth && kLaneWidth <= 8,
                "lane masks are one byte per anchor");
  const WhatIfDag& g = *dag_;
  const std::size_t anchors = g.num_anchors();
  const std::size_t procs = g.baseline_.waiting.size();
  sc.ensure(anchors, procs, kW);

  // Seed every lane: member anchors get their lane bit in `scaled` (the
  // sweep applies removal_of to their own cost), plain members sum their
  // removals into the owning anchor's time row — not computed yet, and
  // read as the gap removal just before the sweep overwrites it.
  std::int64_t pct[kW] = {};
  for (std::size_t l = 0; l < lanes; ++l) {
    const auto bit = static_cast<std::uint8_t>(1u << l);
    pct[l] = plans[l].pct;
    g.for_each_member(
        plans[l].site, [&](std::uint32_t s) { sc.scaled[s] |= bit; },
        [&](std::uint32_t owner, Tick d) {
          Tick& gde = sc.time[owner * kW + l];
          if (!(sc.gapped[owner] & bit)) {
            sc.gapped[owner] |= bit;
            gde = 0;
          }
          gde += removal_of(d, pct[l]);
        });
  }

  // One dense forward pass in slot (= topological) order.  Anchors the
  // experiment does not touch re-evaluate to their baseline times exactly
  // (telescoping), so no frontier bookkeeping is needed — each anchor's
  // shared fields are loaded once and applied row-wise to every lane (the
  // lane loops are branch-free over contiguous rows, so they vectorize).
  // All kW columns are computed even on a partial block: unseeded columns
  // have clear mask bits and just reproduce the baseline.
  for (std::size_t s = 0; s < anchors; ++s) {
    const std::uint32_t q = g.chain_[s];
    const Tick gap = g.gap_[s];
    const Tick d0 = g.d_[s];
    const Tick w0 = g.w0_[s];
    const std::uint32_t p0 = g.pred_off_[s];
    const std::uint32_t p1 = g.pred_off_[s + 1];
    const trace::ProcId proc = g.proc_[s];
    Tick* row = &sc.time[s * kW];
    Tick rem[kW] = {};
    if (const unsigned mask = sc.scaled[s])
      for (std::size_t l = 0; l < kW; ++l)
        if ((mask >> l) & 1u) rem[l] = removal_of(d0, pct[l]);
    Tick base[kW];
    if (q != WhatIfDag::knone) {
      Tick gde[kW] = {};
      if (const unsigned mask = sc.gapped[s])
        for (std::size_t l = 0; l < kW; ++l)
          if ((mask >> l) & 1u) gde[l] = row[l];
      Tick chain_t[kW];
      const Tick* qrow = &sc.time[q * kW];
      for (std::size_t l = 0; l < kW; ++l) {
        chain_t[l] = qrow[l] + gap - gde[l];
        base[l] = chain_t[l];
      }
      for (std::uint32_t c = p0; c < p1; ++c) {
        const Tick* prow = &sc.time[g.pred_[c] * kW];
        for (std::size_t l = 0; l < kW; ++l)
          if (prow[l] > base[l]) base[l] = prow[l];
      }
      unsigned binds = 0;
      for (std::size_t l = 0; l < kW; ++l) {
        row[l] = base[l] + d0 - rem[l];
        binds |= (base[l] == chain_t[l] ? 1u : 0u) << l;
      }
      sc.binds[s] = static_cast<std::uint8_t>(binds);
      if (proc < procs) {
        Tick* wrow = &sc.wait[proc * kW];
        for (std::size_t l = 0; l < kW; ++l)
          wrow[l] += (base[l] - chain_t[l]) - w0;
      }
    } else if (p1 > p0) {
      const Tick* first = &sc.time[g.pred_[p0] * kW];
      for (std::size_t l = 0; l < kW; ++l) base[l] = first[l];
      for (std::uint32_t c = p0 + 1; c < p1; ++c) {
        const Tick* prow = &sc.time[g.pred_[c] * kW];
        for (std::size_t l = 0; l < kW; ++l)
          if (prow[l] > base[l]) base[l] = prow[l];
      }
      // No chain: the anchor waits on nothing the model charges (w == 0,
      // and w0 is 0 for chainless anchors by construction).
      for (std::size_t l = 0; l < kW; ++l) row[l] = base[l] + d0 - rem[l];
    } else {
      for (std::size_t l = 0; l < kW; ++l) row[l] = d0 - rem[l];
    }
  }
  frontier_counter().add(anchors * lanes);

  for (std::size_t l = 0; l < lanes; ++l) {
    WhatIfResult& r = out[l];
    Tick lo = 0, hi = 0;
    bool seen = false;
    for (std::size_t p = 0; p < g.first_slot_.size(); ++p) {
      if (g.first_slot_[p] == WhatIfDag::knone) continue;
      const Tick f = sc.time[g.first_slot_[p] * kW + l];
      const Tick t = sc.time[g.last_slot_[p] * kW + l];
      if (!seen || f < lo) lo = f;
      if (!seen || t > hi) hi = t;
      seen = true;
    }
    r.makespan = seen ? hi - lo : 0;
    r.waiting.resize(procs);
    for (std::size_t p = 0; p < procs; ++p)
      r.waiting[p] = g.baseline_.waiting[p] + sc.wait[p * kW + l];
    r.critical_path = g.walk_critical_path(
        [&](std::uint32_t s) { return sc.time[s * kW + l]; },
        [&](std::uint32_t s) {
          return ((static_cast<unsigned>(sc.binds[s]) >> l) & 1u) != 0;
        });
    experiments_counter().add();
  }
}

void WhatIfEngine::validate(const WhatIfPlan& plan) const {
  if (plan.site >= dag_->sites().size())
    throw std::invalid_argument(
        support::strf("what-if plan names unknown site id %u", plan.site));
  if (plan.pct < 1 || plan.pct > 100)
    throw std::invalid_argument(
        support::strf("what-if pct must be in (0,100], got %lld",
                      static_cast<long long>(plan.pct)));
}

WhatIfResult WhatIfEngine::evaluate(const WhatIfPlan& plan,
                                    Scratch& sc) const {
  const WhatIfDag& g = *dag_;
  const std::size_t procs = g.baseline_.waiting.size();
  sc.ensure(g.num_anchors(), procs);
  const std::uint32_t ep = ++sc.epoch;
  sc.heap.clear();

  const auto push = [&](std::uint32_t s) {
    if (sc.queued_ep[s] == ep) return;
    sc.queued_ep[s] = ep;
    sc.heap.push_back(s);
    std::push_heap(sc.heap.begin(), sc.heap.end(),
                   std::greater<std::uint32_t>());
  };
  const auto time_of = [&](std::uint32_t s) {
    return sc.time_ep[s] == ep ? sc.time[s] : g.t0_[s];
  };
  const auto gap_removal = [&](std::uint32_t s) -> Tick {
    return sc.gapdel_ep[s] == ep ? sc.gapdel[s] : 0;
  };

  // Seed: member anchors scale their own cost; plain members fold their
  // removals into the gap before their owning anchor.  Zero removals change
  // nothing and are skipped, keeping the frontier cone tight.
  g.for_each_member(
      plan.site,
      [&](std::uint32_t s) {
        const Tick r = removal_of(g.d_[s], plan.pct);
        if (r == 0) return;
        sc.removal_ep[s] = ep;
        sc.removal[s] = r;
        push(s);
      },
      [&](std::uint32_t owner, Tick d) {
        const Tick r = removal_of(d, plan.pct);
        if (r == 0) return;
        if (sc.gapdel_ep[owner] != ep) {
          sc.gapdel_ep[owner] = ep;
          sc.gapdel[owner] = 0;
        }
        sc.gapdel[owner] += r;
        push(owner);
      });

  // Forward delta propagation: anchors pop in ascending slot (= trace =
  // topological) order, so every predecessor is final when read.
  // Successors are pushed only when a time actually changed.
  std::uint64_t evaluated = 0;
  while (!sc.heap.empty()) {
    std::pop_heap(sc.heap.begin(), sc.heap.end(),
                  std::greater<std::uint32_t>());
    const std::uint32_t s = sc.heap.back();
    sc.heap.pop_back();
    ++evaluated;

    const std::uint32_t q = g.chain_[s];
    bool any = false;
    Tick base = 0;
    Tick chain_t = 0;
    if (q != WhatIfDag::knone) {
      chain_t = time_of(q) + g.gap_[s] - gap_removal(s);
      base = chain_t;
      any = true;
    }
    for (std::uint32_t c = g.pred_off_[s]; c < g.pred_off_[s + 1]; ++c) {
      const Tick pt = time_of(g.pred_[c]);
      if (!any || pt > base) base = pt;
      any = true;
    }
    const Tick d =
        g.d_[s] - (sc.removal_ep[s] == ep ? sc.removal[s] : 0);
    const Tick t = (any ? base : 0) + d;
    const Tick w = (q != WhatIfDag::knone && any) ? base - chain_t : 0;
    if (g.proc_[s] < sc.wait.size())
      sc.wait[g.proc_[s]] += w - g.w0_[s];

    const Tick old = g.t0_[s];
    sc.time_ep[s] = ep;
    sc.time[s] = t;
    if (t != old)
      for (std::uint32_t c = g.succ_off_[s]; c < g.succ_off_[s + 1]; ++c)
        push(g.succ_[c]);
  }
  frontier_counter().add(evaluated);
  experiments_counter().add();

  WhatIfResult out;
  Tick lo = 0, hi = 0;
  bool seen = false;
  for (std::size_t p = 0; p < g.first_slot_.size(); ++p) {
    if (g.first_slot_[p] == WhatIfDag::knone) continue;
    const Tick f = time_of(g.first_slot_[p]);
    const Tick l = time_of(g.last_slot_[p]);
    if (!seen || f < lo) lo = f;
    if (!seen || l > hi) hi = l;
    seen = true;
  }
  out.makespan = seen ? hi - lo : 0;
  out.waiting.resize(procs);
  for (std::size_t p = 0; p < procs; ++p)
    out.waiting[p] = g.baseline_.waiting[p] + sc.wait[p];
  out.critical_path = g.walk_critical_path(time_of, [&](std::uint32_t s) {
    return g.chain_binds(s, time_of, gap_removal);
  });
  return out;
}

const WhatIfResult& WhatIfEngine::run(const WhatIfPlan& plan) {
  validate(plan);
  const auto key = std::make_pair(plan.site, plan.pct);
  const auto it = memo_.find(key);
  if (it != memo_.end()) {
    memo_counter().add();
    return it->second;
  }
  if (serial_scratch_.empty()) serial_scratch_.resize(1);
  return memo_.emplace(key, evaluate(plan, serial_scratch_[0]))
      .first->second;
}

std::vector<WhatIfResult> WhatIfEngine::run_many(
    const std::vector<WhatIfPlan>& plans, support::TaskPool& pool) {
  for (const WhatIfPlan& plan : plans) validate(plan);
  std::vector<WhatIfResult> results(plans.size());
  std::vector<char> filled(plans.size(), 0);

  // Serial dedupe against the memo and within the batch, so the parallel
  // section sees each distinct (site, pct) exactly once — results are then
  // independent of the worker count by construction.
  std::vector<std::size_t> miss;
  std::map<std::pair<SiteId, std::int64_t>, std::size_t> first_of;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const auto key = std::make_pair(plans[i].site, plans[i].pct);
    const auto it = memo_.find(key);
    if (it != memo_.end()) {
      memo_counter().add();
      results[i] = it->second;
      filled[i] = 1;
      continue;
    }
    if (first_of.emplace(key, i).second) miss.push_back(i);
  }

  // Lane-batched fan-out: the missed plans spread evenly over the fewest
  // kLaneWidth-wide blocks (9 plans: 5 + 4, not 8 + 1, so no block walks
  // many more critical paths than another), each block one dense sweep
  // whose time rows are 4 wide when it has at most 4 lanes.
  // The block partition depends only on the (serially built) miss order,
  // and lanes write disjoint columns, so results are identical at any
  // worker count.
  const std::size_t blocks = (miss.size() + kLaneWidth - 1) / kLaneWidth;
  std::vector<BatchScratch> scratch(pool.size());
  pool.parallel_for(blocks, [&](std::size_t worker, std::size_t b) {
    const std::size_t share = miss.size() / blocks;
    const std::size_t extra = miss.size() % blocks;
    const std::size_t begin = b * share + std::min(b, extra);
    const std::size_t lanes = share + (b < extra ? 1 : 0);
    WhatIfPlan lane_plans[kLaneWidth];
    WhatIfResult lane_out[kLaneWidth];
    for (std::size_t l = 0; l < lanes; ++l)
      lane_plans[l] = plans[miss[begin + l]];
    if (lanes <= 4)
      evaluate_block<4>(lane_plans, lanes, scratch[worker], lane_out);
    else
      evaluate_block<kLaneWidth>(lane_plans, lanes, scratch[worker],
                                 lane_out);
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::size_t i = miss[begin + l];
      results[i] = std::move(lane_out[l]);
      filled[i] = 1;
    }
  });

  for (const std::size_t i : miss)
    memo_.emplace(std::make_pair(plans[i].site, plans[i].pct), results[i]);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (filled[i]) continue;
    memo_counter().add();
    results[i] = memo_.at(std::make_pair(plans[i].site, plans[i].pct));
  }
  return results;
}

std::vector<SiteImpact> WhatIfEngine::rank(std::int64_t pct,
                                           support::TaskPool& pool,
                                           std::size_t top_n) {
  std::vector<WhatIfPlan> plans;
  plans.reserve(dag_->sites().size());
  for (SiteId s = 0; s < dag_->sites().size(); ++s)
    plans.push_back({s, pct});
  const std::vector<WhatIfResult> results = run_many(plans, pool);
  std::vector<SiteImpact> ranking(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    ranking[i].site = plans[i].site;
    ranking[i].savings = dag_->baseline_makespan() - results[i].makespan;
    ranking[i].result = results[i];
  }
  std::stable_sort(ranking.begin(), ranking.end(),
                   [](const SiteImpact& a, const SiteImpact& b) {
                     if (a.savings != b.savings) return a.savings > b.savings;
                     return a.site < b.site;
                   });
  if (ranking.size() > top_n) ranking.resize(top_n);
  return ranking;
}

std::string render_whatif(const WhatIfDag& dag, const WhatIfPlan& plan,
                          const WhatIfResult& result) {
  const WhatIfResult& b = dag.baseline();
  const auto pct_of = [](Tick now, Tick was) {
    return was > 0 ? 100.0 * static_cast<double>(now) /
                         static_cast<double>(was)
                   : 0.0;
  };
  std::string out = support::strf(
      "what-if %s at %lld%% speedup\n",
      dag.sites().name(plan.site).c_str(), static_cast<long long>(plan.pct));
  out += support::strf("  makespan      %12lld -> %12lld  (%.1f%%)\n",
                       static_cast<long long>(b.makespan),
                       static_cast<long long>(result.makespan),
                       pct_of(result.makespan, b.makespan));
  out += support::strf("  critical path %12lld -> %12lld  (%.1f%%)\n",
                       static_cast<long long>(b.critical_path),
                       static_cast<long long>(result.critical_path),
                       pct_of(result.critical_path, b.critical_path));
  Tick w0 = 0, w1 = 0;
  for (const Tick w : b.waiting) w0 += w;
  for (const Tick w : result.waiting) w1 += w;
  out += support::strf("  waiting (sum) %12lld -> %12lld\n",
                       static_cast<long long>(w0),
                       static_cast<long long>(w1));
  return out;
}

std::string render_whatif_ranking(const WhatIfDag& dag, std::int64_t pct,
                                  const std::vector<SiteImpact>& ranking) {
  std::string out = support::strf(
      "what-if ranking at %lld%% speedup (baseline makespan %lld)\n",
      static_cast<long long>(pct),
      static_cast<long long>(dag.baseline_makespan()));
  out += "  rank  site            savings      makespan   of baseline\n";
  std::size_t rank = 1;
  for (const SiteImpact& e : ranking) {
    const double of = dag.baseline_makespan() > 0
                          ? 100.0 *
                                static_cast<double>(e.result.makespan) /
                                static_cast<double>(dag.baseline_makespan())
                          : 0.0;
    out += support::strf("  %-4zu  %-14s %10lld  %12lld  %10.1f%%\n", rank++,
                         dag.sites().name(e.site).c_str(),
                         static_cast<long long>(e.savings),
                         static_cast<long long>(e.result.makespan), of);
  }
  return out;
}

}  // namespace perturb::whatif
