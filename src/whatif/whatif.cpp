#include "whatif/whatif.hpp"

#include <algorithm>
#include <memory>
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
/// Anchor evaluations, one per anchor and lane of every block.
const support::Counter& anchor_evals_counter() {
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
/// integer division, applied per event — the arithmetic the evaluator and
/// the test oracle share for bit-identity.
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
  // once, at its final size.  (One pass into arrays reserved per event and
  // cut to size after ran slower in the benchmark's analyst job: the cut
  // copies into fresh pages.)  slot_of maps an anchor's trace index to its
  // slot (knone for plain events) while the DAG is built.
  std::vector<std::size_t> last_event(procs, kNone);
  for (std::size_t p = 0; p < procs; ++p) {
    const auto evs = idx.events_of(static_cast<ProcId>(p));
    if (!evs.empty()) last_event[p] = evs.back();
  }
  std::vector<std::uint32_t> slot_of(n, knone);
  std::size_t a_n = 0, e_n = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t preds = 0;
    idx.for_each_cross_dep(i, [&](std::size_t) { ++preds; });
    const Event& e = t[i];
    if (preds > 0 || is_dependency_source(e.kind) ||
        idx.prev_on_proc(i) == kNone || last_event[e.proc] == i) {
      slot_of[i] = 0;  // an anchor; numbered below
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
    if (slot_of[i] == knone) continue;
    const Event& e = t[i];
    const auto s = static_cast<std::uint32_t>(event_of_.size());
    const std::uint32_t q = last_anchor[e.proc];
    const std::size_t prev = idx.prev_on_proc(i);
    bool any = prev != kNone;
    Tick base = any ? t[prev].time : 0;
    idx.for_each_cross_dep(i, [&](std::size_t p) {
      pred_.push_back(slot_of[p]);
      if (!any || t[p].time > base) base = t[p].time;
      any = true;
    });
    pred_off_.push_back(static_cast<std::uint32_t>(pred_.size()));
    slot_of[i] = s;
    event_of_.push_back(static_cast<std::uint32_t>(i));
    chain_.push_back(q);
    gap_.push_back(q != knone && slot_of[prev] == knone
                       ? t[prev].time - t0_[q]
                       : 0);
    d_.push_back(e.time - base);
    t0_.push_back(e.time);
    proc_.push_back(e.proc);
    if (q != knone) ++edges_;
    last_anchor[e.proc] = s;
  }
  edges_ += pred_.size();

  // -- per-processor endpoints and baseline metrics ------------------------
  first_slot_.assign(procs, knone);
  last_slot_.assign(procs, knone);
  for (std::size_t p = 0; p < procs; ++p) {
    const auto evs = idx.events_of(static_cast<ProcId>(p));
    if (evs.empty()) continue;
    first_slot_[p] = slot_of[evs.front()];
    last_slot_[p] = slot_of[evs.back()];
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
  // An anchor's chain stalled on its cross dependencies for as long as its
  // base time exceeds the chain's; plain events wait 0 by construction.
  baseline_.waiting.assign(t.info().num_procs, 0);
  for (std::size_t s = 0; s < event_of_.size(); ++s)
    if (chain_[s] != knone && proc_[s] < baseline_.waiting.size())
      baseline_.waiting[proc_[s]] +=
          (t0_[s] - d_[s]) - (t0_[chain_[s]] + gap_[s]);
  walk_critical_paths<1>(
      1, [&](std::uint32_t s, std::size_t) { return t0_[s]; },
      [&](std::uint32_t s, std::size_t) { return baseline_chain_binds(s); },
      &baseline_.critical_path);

  edges_gauge().record_max(static_cast<std::int64_t>(edges_));
}

template <std::size_t kW, typename AnchorFn>
void WhatIfDag::scan_members(const WhatIfPlan* plans, std::size_t lanes,
                             AnchorFn&& at_anchor) const {
  using analysis::SiteKind;
  const Trace& t = index_->trace();
  const std::size_t n = t.size();
  const std::size_t procs = index_->num_procs();

  // Membership, per lane's site:
  //   A statement, sync, semaphore or barrier site holds its own events by
  //   kind (for statements, the exit, which owns the statement's duration).
  //   A lock site holds every event after an acquisition through the
  //   release, on the holding processor: the acquire is excluded (its
  //   waiting is not scaled away) and the release included; a re-acquire
  //   of a held lock changes nothing, a release of an unheld one likewise,
  //   and a lock still held at the end runs to the processor's last event.
  //   A loop site holds every event, on any processor, inside one of its
  //   episodes (begin, end] (a truncated episode runs to the end of the
  //   trace).
  // Per event kind: the lanes whose site holds such an event when its key
  // (statement id for an exit, else object) is the site's id, and the
  // lanes whose lock such an event takes or drops.  A loop lane's episodes
  // merge into disjoint ranges, entered and left by toggling its bit of
  // `in_loop` at each range's ends.
  const auto kind_of = [](EventKind k) { return static_cast<std::size_t>(k); };
  unsigned own[trace::kNumEventKinds] = {};
  unsigned take[trace::kNumEventKinds] = {};
  unsigned drop[trace::kNumEventKinds] = {};
  std::uint32_t key[kW] = {};
  std::int64_t pct[kW] = {};
  struct Toggle {
    std::size_t at;
    unsigned bit;
  };
  std::vector<Toggle> toggles;
  for (std::size_t l = 0; l < lanes; ++l) {
    const analysis::Site site = sites_->site(plans[l].site);
    const unsigned bit = 1u << l;
    key[l] = site.id;
    pct[l] = plans[l].pct;
    switch (site.kind) {
      case SiteKind::kStatement:
        own[kind_of(EventKind::kStmtExit)] |= bit;
        break;
      case SiteKind::kSync:
        for (const EventKind k : {EventKind::kAdvance, EventKind::kAwaitBegin,
                                  EventKind::kAwaitEnd})
          own[kind_of(k)] |= bit;
        break;
      case SiteKind::kSemaphore:
        own[kind_of(EventKind::kSemAcquire)] |= bit;
        own[kind_of(EventKind::kSemRelease)] |= bit;
        break;
      case SiteKind::kBarrier:
        own[kind_of(EventKind::kBarrierArrive)] |= bit;
        own[kind_of(EventKind::kBarrierDepart)] |= bit;
        break;
      case SiteKind::kLock:
        take[kind_of(EventKind::kLockAcquire)] |= bit;
        drop[kind_of(EventKind::kLockRelease)] |= bit;
        break;
      case SiteKind::kLoop: {
        std::vector<std::pair<std::size_t, std::size_t>> episodes;
        for (const auto& span : index_->loops()) {
          if (span.object != site.id || span.begin_index == kNone) continue;
          const std::size_t last =
              span.end_index == kNone ? n - 1 : span.end_index;
          if (span.begin_index < last)
            episodes.emplace_back(span.begin_index + 1, last);
        }
        std::sort(episodes.begin(), episodes.end());
        for (std::size_t r = 0; r < episodes.size();) {
          const std::size_t first = episodes[r].first;
          std::size_t last = episodes[r].second;
          for (++r; r < episodes.size() && episodes[r].first <= last + 1; ++r)
            last = std::max(last, episodes[r].second);
          toggles.push_back({first, bit});
          toggles.push_back({last + 1, bit});
        }
        break;
      }
    }
  }
  std::sort(toggles.begin(), toggles.end(),
            [](const Toggle& a, const Toggle& b) { return a.at < b.at; });

  // Per processor: the last event's time, the lanes whose lock it holds,
  // and each lane's removals pending for its next anchor.  Every
  // processor's last event is an anchor, so the trace's last event is one
  // and `next` stays in range; a plain event always has an earlier event
  // on its processor, so its cost is e.time - last.  The loop works on raw
  // pointers held in locals, so no store can force their reload.
  std::vector<Tick> last_time(procs, 0);
  std::vector<unsigned> held_lanes(procs, 0);
  std::vector<Tick> pending(procs * kW, 0);
  const Event* const events = t.events().data();
  const std::uint32_t* const anchor_event = event_of_.data();
  Tick* const last = last_time.data();
  unsigned* const held = held_lanes.data();
  Tick* const pend_of = pending.data();
  std::size_t next_toggle = toggles.empty() ? n : toggles[0].at;
  unsigned in_loop = 0;
  std::size_t k = 0;
  std::uint32_t next = 0;  // the next anchor's slot
  for (std::size_t i = 0; i < n; ++i) {
    if (i == next_toggle) {
      for (; k < toggles.size() && toggles[k].at == i; ++k)
        in_loop ^= toggles[k].bit;
      next_toggle = k < toggles.size() ? toggles[k].at : n;
    }
    const Event& e = events[i];
    const std::size_t kind = kind_of(e.kind);
    const std::uint32_t id =
        e.kind == EventKind::kStmtExit ? e.id : e.object;
    unsigned match = 0;
    for (std::size_t l = 0; l < kW; ++l)
      match |= (id == key[l] ? 1u : 0u) << l;
    const unsigned h = held[e.proc];
    const unsigned member = h | in_loop | (own[kind] & match);
    held[e.proc] = (h | (take[kind] & match)) & ~(drop[kind] & match);
    const Tick d = e.time - last[e.proc];
    last[e.proc] = e.time;

    Tick* const pend = pend_of + e.proc * kW;
    if (anchor_event[next] == i) {
      at_anchor(next, member, static_cast<const Tick*>(pend));
      for (std::size_t l = 0; l < kW; ++l) pend[l] = 0;
      ++next;
    } else if (member != 0) {
      for (std::size_t l = 0; l < kW; ++l)
        pend[l] += removal_of(d, (member >> l) & 1u ? pct[l] : 0);
    }
  }
}

bool WhatIfDag::baseline_chain_binds(std::uint32_t s) const noexcept {
  const Tick chain_t = t0_[chain_[s]] + gap_[s];
  for (std::uint32_t c = pred_off_[s]; c < pred_off_[s + 1]; ++c)
    if (t0_[pred_[c]] > chain_t) return false;
  return true;
}

template <std::size_t kW, typename TimeFn, typename BindsFn>
void WhatIfDag::walk_critical_paths(std::size_t lanes, TimeFn&& time_of,
                                    BindsFn&& chain_binds_at,
                                    Tick* length) const {
  // End anchor: the latest per-processor chain endpoint; ties go to the
  // larger slot, i.e. trace index (mirrors critical_path's argmax scan).
  std::uint32_t end[kW] = {}, cur[kW] = {};
  unsigned active = 0;
  for (std::size_t l = 0; l < lanes; ++l) {
    end[l] = knone;
    for (const std::uint32_t s : last_slot_) {
      if (s == knone) continue;
      if (end[l] == knone || time_of(s, l) > time_of(end[l], l) ||
          (time_of(s, l) == time_of(end[l], l) && s > end[l]))
        end[l] = s;
    }
    cur[l] = end[l];
    if (end[l] != knone) active |= 1u << l;
  }

  // Every step goes to a lower slot, so visiting the highest cursor next
  // meets each lane's steps in order; lanes whose paths meet share the
  // anchor's loads from there on.
  while (active != 0) {
    std::uint32_t s = 0;
    for (std::size_t l = 0; l < lanes; ++l)
      if (((active >> l) & 1u) && cur[l] > s) s = cur[l];
    const std::uint32_t q = chain_[s];
    for (std::size_t l = 0; l < lanes; ++l) {
      if (!((active >> l) & 1u) || cur[l] != s) continue;
      if (q != knone && chain_binds_at(s, l)) {
        cur[l] = q;
        continue;
      }
      std::uint32_t best = knone;
      Tick best_t = 0;
      for (std::uint32_t c = pred_off_[s]; c < pred_off_[s + 1]; ++c) {
        const Tick pt = time_of(pred_[c], l);
        if (best == knone || pt > best_t) {
          best = pred_[c];
          best_t = pt;
        }
      }
      if (best == knone)
        active &= ~(1u << l);
      else
        cur[l] = best;
    }
  }
  for (std::size_t l = 0; l < lanes; ++l)
    length[l] =
        end[l] == knone ? 0 : time_of(end[l], l) - time_of(cur[l], l);
}

/// Scratch for one dense sweep block: lane-minor time rows of the block's
/// row width W (slot s, lane l at index s * W + l), so the per-anchor chain
/// and predecessor loads are shared by all lanes of a cache line, plus one
/// lane-mask byte per anchor recording whether its chain binds (set by the
/// sweep, read by the critical-path pass), and per-processor waiting sums.
/// The sweep writes an anchor's row and mask before anything reads them, so
/// neither is initialized, and blocks of any lane count and row width can
/// share one scratch.
struct WhatIfEngine::BatchScratch {
  std::unique_ptr<Tick[]> time;
  std::unique_ptr<std::uint8_t[]> binds;
  std::size_t cells = 0, anchors = 0;
  std::vector<Tick> wait;

  void ensure(std::size_t n_anchors, std::size_t procs, std::size_t width) {
    if (cells < n_anchors * width) {
      time.reset();  // never hold narrower and wider rows at once
      cells = n_anchors * width;
      time = std::make_unique_for_overwrite<Tick[]>(cells);
    }
    if (anchors < n_anchors) {
      anchors = n_anchors;
      binds = std::make_unique_for_overwrite<std::uint8_t[]>(anchors);
    }
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
  std::int64_t pct[kW] = {};
  for (std::size_t l = 0; l < lanes; ++l) pct[l] = plans[l].pct;

  // One dense forward pass in slot (= topological) order, fused with the
  // membership scan: member anchors get removal_of applied to their own
  // cost, and plain members' removals arrive summed per lane as the gap
  // removal of their anchor.  Anchors the experiment does not touch
  // re-evaluate to their baseline times exactly (telescoping), so nothing
  // tracks which times changed — each anchor's shared fields are loaded
  // once and applied row-wise to every lane (the lane loops are branch-free
  // over contiguous rows, so they vectorize).  All kW columns are computed
  // even on a partial block: unseeded columns just reproduce the baseline.
  const std::uint32_t* const chain = g.chain_.data();
  const Tick* const gap = g.gap_.data();
  const Tick* const cost = g.d_.data();
  const std::uint32_t* const pred_off = g.pred_off_.data();
  const std::uint32_t* const pred = g.pred_.data();
  const trace::ProcId* const proc_of = g.proc_.data();
  Tick* const time = sc.time.get();
  std::uint8_t* const binds = sc.binds.get();
  Tick* const wait = sc.wait.data();
  g.scan_members<kW>(plans, lanes, [&](std::uint32_t s, unsigned scaled,
                                       const Tick* gde) {
    const std::uint32_t q = chain[s];
    const Tick d0 = cost[s];
    const std::uint32_t p0 = pred_off[s];
    const std::uint32_t p1 = pred_off[s + 1];
    Tick* row = time + s * kW;
    Tick rem[kW] = {};
    if (scaled != 0)
      for (std::size_t l = 0; l < kW; ++l)
        if ((scaled >> l) & 1u) rem[l] = removal_of(d0, pct[l]);
    Tick base[kW];
    if (q != WhatIfDag::knone) {
      const Tick gap_s = gap[s];
      Tick chain_t[kW];
      const Tick* qrow = time + q * kW;
      for (std::size_t l = 0; l < kW; ++l) {
        chain_t[l] = qrow[l] + gap_s - gde[l];
        base[l] = chain_t[l];
      }
      for (std::uint32_t c = p0; c < p1; ++c) {
        const Tick* prow = time + pred[c] * kW;
        for (std::size_t l = 0; l < kW; ++l)
          if (prow[l] > base[l]) base[l] = prow[l];
      }
      unsigned bound = 0;
      for (std::size_t l = 0; l < kW; ++l) {
        row[l] = base[l] + d0 - rem[l];
        bound |= (base[l] == chain_t[l] ? 1u : 0u) << l;
      }
      binds[s] = static_cast<std::uint8_t>(bound);
      if (const trace::ProcId proc = proc_of[s]; proc < procs) {
        Tick* wrow = wait + proc * kW;
        for (std::size_t l = 0; l < kW; ++l) wrow[l] += base[l] - chain_t[l];
      }
    } else if (p1 > p0) {
      const Tick* first = time + pred[p0] * kW;
      for (std::size_t l = 0; l < kW; ++l) base[l] = first[l];
      for (std::uint32_t c = p0 + 1; c < p1; ++c) {
        const Tick* prow = time + pred[c] * kW;
        for (std::size_t l = 0; l < kW; ++l)
          if (prow[l] > base[l]) base[l] = prow[l];
      }
      // No chain: the anchor waits on nothing the model charges.
      for (std::size_t l = 0; l < kW; ++l) row[l] = base[l] + d0 - rem[l];
    } else {
      for (std::size_t l = 0; l < kW; ++l) row[l] = d0 - rem[l];
    }
  });
  anchor_evals_counter().add(anchors * lanes);

  Tick path[kW] = {};
  g.walk_critical_paths<kW>(
      lanes,
      [&](std::uint32_t s, std::size_t l) { return time[s * kW + l]; },
      [&](std::uint32_t s, std::size_t l) {
        return ((static_cast<unsigned>(binds[s]) >> l) & 1u) != 0;
      },
      path);
  for (std::size_t l = 0; l < lanes; ++l) {
    WhatIfResult& r = out[l];
    Tick lo = 0, hi = 0;
    bool seen = false;
    for (std::size_t p = 0; p < g.first_slot_.size(); ++p) {
      if (g.first_slot_[p] == WhatIfDag::knone) continue;
      const Tick f = time[g.first_slot_[p] * kW + l];
      const Tick t = time[g.last_slot_[p] * kW + l];
      if (!seen || f < lo) lo = f;
      if (!seen || t > hi) hi = t;
      seen = true;
    }
    r.makespan = seen ? hi - lo : 0;
    r.critical_path = path[l];
    r.waiting.resize(procs);
    for (std::size_t p = 0; p < procs; ++p) r.waiting[p] = wait[p * kW + l];
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

const WhatIfResult& WhatIfEngine::run(const WhatIfPlan& plan) {
  validate(plan);
  const auto key = std::make_pair(plan.site, plan.pct);
  const auto it = memo_.find(key);
  if (it != memo_.end()) {
    memo_counter().add();
    return it->second;
  }
  BatchScratch scratch;
  WhatIfResult result;
  evaluate_block<1>(&plan, 1, scratch, &result);
  return memo_.emplace(key, std::move(result)).first->second;
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

  // Lane-batched fan-out: at least one block per worker while there are
  // plans for it, else the fewest kLaneWidth-wide blocks, with lane counts
  // that differ by at most one (9 plans on 4 workers: 3 + 2 + 2 + 2).  A
  // block's rows are as wide as its lane count rounds up to.  Lanes write
  // disjoint columns, so results are identical at any worker count.
  const std::size_t m = miss.size();
  const std::size_t blocks =
      std::max((m + kLaneWidth - 1) / kLaneWidth, std::min(pool.size(), m));
  std::vector<BatchScratch> scratch(pool.size());
  pool.parallel_for(blocks, [&](std::size_t worker, std::size_t b) {
    const std::size_t share = m / blocks;
    const std::size_t extra = m % blocks;
    const std::size_t begin = b * share + std::min(b, extra);
    const std::size_t lanes = share + (b < extra ? 1 : 0);
    WhatIfPlan lane_plans[kLaneWidth];
    WhatIfResult lane_out[kLaneWidth];
    for (std::size_t l = 0; l < lanes; ++l)
      lane_plans[l] = plans[miss[begin + l]];
    BatchScratch& sc = scratch[worker];
    if (lanes == 1)
      evaluate_block<1>(lane_plans, lanes, sc, lane_out);
    else if (lanes == 2)
      evaluate_block<2>(lane_plans, lanes, sc, lane_out);
    else if (lanes <= 4)
      evaluate_block<4>(lane_plans, lanes, sc, lane_out);
    else
      evaluate_block<kLaneWidth>(lane_plans, lanes, sc, lane_out);
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
