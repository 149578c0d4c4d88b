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
// of plain chain-only events between anchors collapse into gap sums, so an
// experiment evaluates by forward delta propagation over the anchor graph
// from the perturbed site only: a min-heap frontier pops anchors in trace
// (= topological) order and pushes successors only when a time actually
// changed.  Small speedups touch a small cone.  The tests hold it
// bit-identical to a dense oracle that rewrites every event's cost and
// re-simulates the full trace, with its own per-site membership and
// dependency rules (tests/whatif_oracle.hpp).
//
// Footprint.  Site membership is kept in the form the trace already has:
// a loop site as its merged episode ranges of trace indices, a lock site as
// its held ranges of positions in TraceIndex::events_of(proc), and the
// other sites as 32-bit lists of trace indices.  One 32-bit "slot or owner"
// entry per event maps a member to its anchor slot (anchors) or to the next
// anchor on its processor (plain events, whose cost t[i] - t[prev_on_proc]
// is derived when an experiment is seeded), so no per-member cost is
// stored.  Slots and trace indices are 32-bit, which TraceIndex's own
// 2^32 - 2 event limit guarantees.
//
// Sweeps batch further: run_many spreads distinct plans evenly over the
// fewest kLaneWidth-wide blocks, and one dense forward pass over the
// anchor arrays computes a block's experiments at once (lane-minor time
// rows), so the chain and cross-predecessor loads are paid once per
// anchor, not once per experiment.  A block's rows are only as wide as it
// needs: 4 lanes for a block of at most 4 plans, kLaneWidth otherwise.
// The time rows are the only per-lane scratch: member anchors and seeded
// gap removals are one lane-mask byte per anchor, and the sweep records a
// chain-binds mask byte that the critical-path walk reads instead of
// re-deriving it.  Blocks fan out
// across a support::TaskPool with per-worker scratch arenas and results
// are memoized per (site, pct) like experiments::run_grid memoizes actual
// runs; results are bit-identical at any thread count and identical
// between the sparse and batched paths.
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

/// The per-trace dependency DAG, anchor-compressed, with per-site member
/// tables and baseline metrics.  Built once; immutable afterwards.  Holds
/// references to the index and registry: both must outlive the DAG.
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

  /// Inclusive range [first, last] of trace indices (a loop site).
  struct TraceRange {
    std::uint32_t first = 0, last = 0;
  };
  /// Inclusive range [first, last] of positions in events_of(proc) (a lock
  /// site while `proc` holds it).
  struct HeldRange {
    trace::ProcId proc = 0;
    std::uint32_t first = 0, last = 0;
  };
  /// One site's member events; a site uses exactly one of the three forms.
  struct SiteMembers {
    std::vector<std::uint32_t> events;    ///< stmt/sync/sem/barrier, ascending
    std::vector<TraceRange> loop_ranges;  ///< disjoint, ascending
    std::vector<HeldRange> held;
  };

  /// Calls on_anchor(slot) for every member anchor of `site` and
  /// on_plain(owner slot, local cost d) for every plain member.
  template <typename AnchorFn, typename PlainFn>
  void for_each_member(SiteId site, AnchorFn&& on_anchor,
                       PlainFn&& on_plain) const;

  /// Critical-path walk over the anchor graph under an experiment's time
  /// view: `time_of(slot)` is the anchor's (possibly re-evaluated) time,
  /// `chain_binds(slot)` whether a chained anchor's same-processor chain
  /// is at least as late as every cross predecessor.  The binding
  /// predecessor is the latest one; ties prefer the same-processor chain,
  /// and among cross predecessors the earliest in trace order.  Returns
  /// the path length in ticks.
  template <typename TimeFn, typename BindsFn>
  Tick walk_critical_path(TimeFn&& time_of, BindsFn&& chain_binds) const;

  /// The chain-binds predicate of chained anchor `s` computed from a time
  /// view and `gap_removal(slot)`, the cost removed from the plain run
  /// before an anchor.
  template <typename TimeFn, typename GapFn>
  bool chain_binds(std::uint32_t s, TimeFn&& time_of,
                   GapFn&& gap_removal) const;

  const trace::TraceIndex* index_;
  const SiteRegistry* sites_;

  /// Per event: its slot for an anchor, else the next anchor on its
  /// processor (the owner whose gap it folds into).  An event is an anchor
  /// iff event_of_[slot_or_owner_[i]] == i.
  std::vector<std::uint32_t> slot_or_owner_;

  // Per anchor, slot order == ascending trace index (a topological order).
  std::vector<std::uint32_t> event_of_;  ///< slot -> trace index
  std::vector<std::uint32_t> chain_;     ///< previous same-proc anchor, knone
  std::vector<Tick> gap_;                ///< plain-run cost between chain_ and
                                         ///< this anchor (telescoped t0 sum)
  std::vector<Tick> d_;                  ///< the anchor's own local cost
  std::vector<Tick> t0_;                 ///< baseline (recovered) time
  std::vector<Tick> w0_;                 ///< baseline waiting at this anchor
  std::vector<trace::ProcId> proc_;
  std::vector<std::uint32_t> pred_off_;  ///< cross preds, flat [off, off+1)
  std::vector<std::uint32_t> pred_;
  std::vector<std::uint32_t> succ_off_;  ///< dependents, flat
  std::vector<std::uint32_t> succ_;

  std::vector<std::uint32_t> first_slot_;  ///< per proc, knone if no events
  std::vector<std::uint32_t> last_slot_;

  std::vector<SiteMembers> members_;  ///< by SiteId
  std::size_t edges_ = 0;
  WhatIfResult baseline_;
};

/// Ranked outcome of a one-site experiment within a sweep.
struct SiteImpact {
  SiteId site = 0;
  Tick savings = 0;  ///< baseline makespan - virtual makespan
  WhatIfResult result;
};

/// Runs experiments against one WhatIfDag by forward delta propagation,
/// memoizing per (site, pct).  Not thread-safe across calls: use one engine
/// per thread; `run_many` parallelizes internally (bit-identical results at
/// any pool size).  The DAG must outlive the engine.
class WhatIfEngine {
 public:
  explicit WhatIfEngine(const WhatIfDag& dag);
  ~WhatIfEngine();

  /// One experiment.  Throws std::invalid_argument for a plan with an
  /// out-of-range site or pct outside (0, 100].
  const WhatIfResult& run(const WhatIfPlan& plan);

  /// A batch of experiments, memo-deduplicated then fanned out across
  /// `pool` with per-worker scratch arenas.  results[i] corresponds to
  /// plans[i].  Distinct plans spread evenly over the fewest lane-batched
  /// blocks: one dense forward pass over the anchor arrays computes up to
  /// kLaneWidth experiments at once (lane-minor time rows), amortizing the
  /// chain and cross-predecessor traversal that dominates a single sparse
  /// evaluation.  Bit-identical to run() — both paths share the same
  /// arithmetic.
  std::vector<WhatIfResult> run_many(const std::vector<WhatIfPlan>& plans,
                                     support::TaskPool& pool);

  /// Most experiments evaluated together by one dense sweep block in
  /// run_many (a block of at most 4 uses 4-wide rows).
  static constexpr std::size_t kLaneWidth = 8;

  /// Sweeps every site at the same speedup and returns the `top_n` regions
  /// by makespan savings (ties broken toward the smaller site id).
  std::vector<SiteImpact> rank(std::int64_t pct, support::TaskPool& pool,
                               std::size_t top_n);

  const WhatIfDag& dag() const noexcept { return *dag_; }

 private:
  struct Scratch;
  struct BatchScratch;

  WhatIfResult evaluate(const WhatIfPlan& plan, Scratch& scratch) const;
  /// Dense lane-batched evaluation: `lanes` (<= kW <= kLaneWidth) plans in
  /// one forward pass over every anchor with kW-wide time rows, writing
  /// out[0..lanes).
  template <std::size_t kW>
  void evaluate_block(const WhatIfPlan* plans, std::size_t lanes,
                      BatchScratch& scratch, WhatIfResult* out) const;
  void validate(const WhatIfPlan& plan) const;

  const WhatIfDag* dag_;
  std::vector<Scratch> serial_scratch_;  ///< lazily sized, for run()
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
