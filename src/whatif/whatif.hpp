// Causal what-if engine: virtual-speedup experiments over recovered traces.
//
// The paper recovers the approximated true execution from a perturbed event
// trace; this module answers the next question — *what would have happened
// if this site were faster?* — without re-running the program or the
// reconstruction.  A `WhatIfPlan{site, pct}` virtually speeds up one
// interned region (statement, loop body, lock-guarded critical section,
// sync/probe cost) by `pct` percent, and the engine recomputes the
// resulting makespan, critical-path length, and per-processor dependency
// waiting on the recovered execution.
//
// Cost model.  Every event i owns a local cost
//     d_i = t0[i] - max over predecessors p of t0[p]        (0-max if none)
// where the predecessors are the same-processor chain plus the
// cross-processor dependencies the critical-path analysis uses (the advance
// an awaitE waited for, the release a lock acquisition waited for, every
// arrival a barrier departure waited for, the spawning LoopBegin of a
// processor's first event in a loop episode).  Re-evaluating
//     t'[i] = max over predecessors p of t'[p] + d'_i
// with unscaled costs reproduces the recovered times exactly; scaling the
// costs of one site's member events (d' = d - (d * pct) / 100, truncating
// integer division applied per event) yields the virtual execution.
//
// Perf core.  The dependency DAG is built ONCE per trace (`WhatIfDag`), in
// time linear in the trace.  It is compressed to *anchors* — events that
// carry cross dependencies, feed them, or bound a processor's chain.  Runs
// of plain chain-only events between anchors collapse into gap sums.  Every
// experiment is evaluated the same way: a block of experiments (one for
// run(), up to kLaneWidth for a sweep) is one dense forward pass over the
// anchor arrays, fused with the block's membership scan, that computes its
// experiments at once (lane-minor time rows).  The tests hold it
// bit-identical to a dense oracle that rewrites every event's cost and
// re-simulates the full trace, with its own per-site membership and
// dependency rules (tests/whatif_oracle.hpp).
//
// Footprint.  The DAG keeps only what the forward pass reads: per anchor
// its trace index, chain link, gap, local cost, baseline time and
// processor, and the cross-predecessor CSR.  Slots and trace indices are
// 32-bit, which TraceIndex's own 2^32 - 2 event limit guarantees.  Site
// membership is not stored: a block gathers its plans' members in one
// trace-order scan that carries the last time per processor, so a plain
// member's cost t[i] - t[prev_on_proc] is derived as it passes and summed
// into the removal pending before the next anchor on its processor.
//
// Sweeps: run_many splits its distinct plans into
// max(ceil(plans / kLaneWidth), min(pool size, plans)) blocks of near-equal
// lane counts, so every worker of the pool gets one when there are enough
// plans.  The chain and cross-predecessor loads are paid once per anchor,
// not once per experiment.  A block's rows are only as wide as its lane
// count (1, 2, 4 or kLaneWidth columns).  Besides the time rows a block
// keeps one chain-binds lane-mask byte per anchor, and one descending pass
// over the slots then walks every lane's critical path at once: paths only
// move to lower slots, so the pass meets each lane's steps in order.
// Blocks fan out across a support::TaskPool with per-worker scratch arenas
// and results are memoized per (site, pct) like experiments::run_grid
// memoizes actual runs; each lane writes only its own columns, so results
// are bit-identical at any thread count and between run() and run_many.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/sites.hpp"
#include "support/parallel.hpp"
#include "trace/index.hpp"
#include "trace/trace.hpp"

namespace perturb::whatif {

using analysis::SiteId;
using analysis::SiteRegistry;
using trace::Tick;

/// One virtual-speedup experiment: scale every member event of `site` by
/// `pct` percent (pct in (0, 100]; 100 removes the site's cost entirely).
/// Members: a statement's exits; every event inside an episode of a loop;
/// every event after a lock's acquisition through its release, on the
/// holding processor; the sync, semaphore or barrier events on an object.
struct WhatIfPlan {
  SiteId site = 0;
  std::int64_t pct = 0;

  friend bool operator==(const WhatIfPlan&, const WhatIfPlan&) = default;
};

/// Outcome of one experiment on the virtual execution.
struct WhatIfResult {
  Tick makespan = 0;       ///< span between first and last per-proc events
  Tick critical_path = 0;  ///< length of the binding dependency chain
  /// Per-processor dependency waiting: time each processor's chain sat
  /// stalled on a cross dependency (the DAG-model analogue of the waiting
  /// analysis, exact under re-evaluation).
  std::vector<Tick> waiting;

  friend bool operator==(const WhatIfResult&, const WhatIfResult&) = default;
};

/// Syntactic half of a `--whatif=<site>:<pct>` spec: the site name is not
/// resolved yet (that needs a trace's registry).  pct has been validated to
/// be an integer in (0, 100].
struct WhatIfSpec {
  std::string site;
  std::int64_t pct = 0;
};

/// Parses "<site>:<pct>".  Returns std::nullopt and sets `error` to a
/// one-line message when the spec is malformed (missing colon, empty site,
/// non-integer pct, pct outside (0, 100]).
std::optional<WhatIfSpec> parse_whatif_spec(std::string_view spec,
                                            std::string* error);

/// The per-trace dependency DAG, anchor-compressed, with baseline metrics.
/// It stores no site membership: experiments scan the trace for their
/// members.  Built once; immutable afterwards.  Holds references to the
/// index and registry: both must outlive the DAG.
class WhatIfDag {
 public:
  static constexpr std::uint32_t knone = static_cast<std::uint32_t>(-1);

  WhatIfDag(const trace::TraceIndex& index, const SiteRegistry& sites);

  const trace::TraceIndex& index() const noexcept { return *index_; }
  const SiteRegistry& sites() const noexcept { return *sites_; }

  std::size_t num_anchors() const noexcept { return event_of_.size(); }
  std::size_t num_edges() const noexcept { return edges_; }

  Tick baseline_makespan() const noexcept { return baseline_.makespan; }
  Tick baseline_critical_path() const noexcept {
    return baseline_.critical_path;
  }
  const WhatIfResult& baseline() const noexcept { return baseline_; }

 private:
  friend class WhatIfEngine;

  /// One trace-order scan for the members of `lanes` (<= kW) plans' sites.
  /// Calls at_anchor(slot, scaled, gap_removal) for every anchor in slot
  /// order: bit l of `scaled` is set when the anchor is a member of lane
  /// l's site, and gap_removal[l] (kW entries) is the summed removal of
  /// lane l's plain members folded into the anchor's gap.
  template <std::size_t kW, typename AnchorFn>
  void scan_members(const WhatIfPlan* plans, std::size_t lanes,
                    AnchorFn&& at_anchor) const;

  /// Critical-path walks of `lanes` (<= kW) experiments in one descending
  /// pass over the slots.  `time_of(slot, lane)` is an anchor's (possibly
  /// re-evaluated) time, `chain_binds(slot, lane)` whether a chained
  /// anchor's same-processor chain is at least as late as every cross
  /// predecessor.  Each path starts at the latest per-processor chain
  /// endpoint (ties to the larger slot) and steps to the binding
  /// predecessor: the latest one, ties preferring the chain, and among
  /// cross predecessors the earliest in trace order.  Writes the path
  /// lengths in ticks to length[0..lanes).
  template <std::size_t kW, typename TimeFn, typename BindsFn>
  void walk_critical_paths(std::size_t lanes, TimeFn&& time_of,
                           BindsFn&& chain_binds, Tick* length) const;

  /// Whether chained anchor `s`'s same-processor chain is at least as late
  /// as every cross predecessor in the recovered execution.
  bool baseline_chain_binds(std::uint32_t s) const noexcept;

  const trace::TraceIndex* index_;
  const SiteRegistry* sites_;

  // Per anchor, slot order == ascending trace index (a topological order).
  std::vector<std::uint32_t> event_of_;  ///< slot -> trace index
  std::vector<std::uint32_t> chain_;     ///< previous same-proc anchor, knone
  std::vector<Tick> gap_;                ///< plain-run cost between chain_ and
                                         ///< this anchor (telescoped t0 sum)
  std::vector<Tick> d_;                  ///< the anchor's own local cost
  std::vector<Tick> t0_;                 ///< baseline (recovered) time
  std::vector<trace::ProcId> proc_;
  std::vector<std::uint32_t> pred_off_;  ///< cross preds, flat [off, off+1)
  std::vector<std::uint32_t> pred_;

  std::vector<std::uint32_t> first_slot_;  ///< per proc, knone if no events
  std::vector<std::uint32_t> last_slot_;

  std::size_t edges_ = 0;  ///< chain links plus cross edges
  WhatIfResult baseline_;
};

/// Ranked outcome of a one-site experiment within a sweep.
struct SiteImpact {
  SiteId site = 0;
  Tick savings = 0;  ///< baseline makespan - virtual makespan
  WhatIfResult result;
};

/// Runs experiments against one WhatIfDag by dense forward re-evaluation,
/// memoizing per (site, pct).  Not thread-safe across calls: use one engine
/// per thread; `run_many` parallelizes internally (bit-identical results at
/// any pool size).  The DAG must outlive the engine.
class WhatIfEngine {
 public:
  explicit WhatIfEngine(const WhatIfDag& dag);
  ~WhatIfEngine();

  /// One experiment, evaluated as a one-lane block.  Throws
  /// std::invalid_argument for a plan with an out-of-range site or pct
  /// outside (0, 100].
  const WhatIfResult& run(const WhatIfPlan& plan);

  /// A batch of experiments, memo-deduplicated then fanned out across
  /// `pool` with per-worker scratch arenas.  results[i] corresponds to
  /// plans[i].  The m distinct missed plans split into
  /// max(ceil(m / kLaneWidth), min(pool.size(), m)) blocks whose lane
  /// counts differ by at most one, so a sweep of at least pool-size plans
  /// keeps every worker busy.  Each block is one dense forward pass over
  /// the anchor arrays with rows as wide as its lane count rounds up to
  /// (1, 2, 4 or kLaneWidth), amortizing the chain and cross-predecessor
  /// traversal over its lanes.  The partition depends only on the pool size
  /// and the plans, and each lane writes only its own columns, so results
  /// are bit-identical at any pool size and to run().
  std::vector<WhatIfResult> run_many(const std::vector<WhatIfPlan>& plans,
                                     support::TaskPool& pool);

  /// Most experiments evaluated together by one dense sweep block in
  /// run_many.
  static constexpr std::size_t kLaneWidth = 8;

  /// Sweeps every site at the same speedup and returns the `top_n` regions
  /// by makespan savings (ties broken toward the smaller site id).
  std::vector<SiteImpact> rank(std::int64_t pct, support::TaskPool& pool,
                               std::size_t top_n);

  const WhatIfDag& dag() const noexcept { return *dag_; }

 private:
  struct BatchScratch;

  /// Dense lane-batched evaluation: `lanes` (<= kW <= kLaneWidth) plans in
  /// one forward pass over every anchor with kW-wide time rows, writing
  /// out[0..lanes).
  template <std::size_t kW>
  void evaluate_block(const WhatIfPlan* plans, std::size_t lanes,
                      BatchScratch& scratch, WhatIfResult* out) const;
  void validate(const WhatIfPlan& plan) const;

  const WhatIfDag* dag_;
  std::map<std::pair<SiteId, std::int64_t>, WhatIfResult> memo_;
};

/// Renders one experiment next to the baseline.
std::string render_whatif(const WhatIfDag& dag, const WhatIfPlan& plan,
                          const WhatIfResult& result);

/// Renders a ranking table (site, savings, virtual makespan, % of
/// baseline) for `rank`'s output.
std::string render_whatif_ranking(const WhatIfDag& dag, std::int64_t pct,
                                  const std::vector<SiteImpact>& ranking);

}  // namespace perturb::whatif
