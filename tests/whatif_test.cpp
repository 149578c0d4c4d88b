// What-if engine suite: the delta-propagation engine must be bit-identical
// to the rewrite-and-resimulate oracle (whatif_oracle.hpp) on every trace
// we can produce — the full Livermore kernel suite at 1/2/8 processors, the
// five synthesized workload families (locks, semaphores, barriers, nested
// loops), and fault-injected/repaired traces — at any TaskPool thread
// count, with the (site, pct) memo transparent to results.  Also covers the
// shared site registry and the --whatif spec parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/critical_path.hpp"
#include "analysis/sites.hpp"
#include "analysis/waiting.hpp"
#include "experiments/experiments.hpp"
#include "experiments/grid.hpp"
#include "loops/kernels.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "trace/faults.hpp"
#include "trace/index.hpp"
#include "trace/repair.hpp"
#include "whatif/whatif.hpp"
#include "workload/workload.hpp"
#include "whatif_oracle.hpp"

namespace perturb {
namespace {

using analysis::SiteRegistry;
using trace::Tick;
using trace::Trace;
using trace::TraceIndex;
using whatif::WhatIfDag;
using whatif::WhatIfEngine;
using whatif::WhatIfPlan;
using whatif::WhatIfResult;

Trace recovered_trace(int loop, std::uint32_t procs, std::int64_t n) {
  experiments::Setup setup;
  setup.machine.num_procs = procs;
  const auto run = experiments::run_concurrent_experiment(
      loop, n, setup, experiments::PlanKind::kFull);
  return run.event_based.approx;
}

/// The recovered trace of one synthesized-workload cell, through the
/// run_scenario path the experiment grid runs.
Trace recovered_workload_trace(workload::Family family, std::uint64_t seed,
                               std::uint32_t procs) {
  experiments::Scenario cell;
  cell.plan = experiments::PlanKind::kFull;
  cell.setup.machine.num_procs = procs;
  workload::WorkloadSpec spec;
  spec.family = family;
  spec.seed = seed;
  spec.params = workload::default_params(family);
  spec.params.trip = 200;
  cell.workload = spec;
  return experiments::run_scenario(cell).event_based.approx;
}

constexpr workload::Family kAllFamilies[] = {
    workload::Family::kPareto, workload::Family::kLognormal,
    workload::Family::kContention, workload::Family::kIrregular,
    workload::Family::kBursty};

/// A deterministic batch of >= `count` (site, pct) plans cycling over every
/// site of the registry and a spread of speedups.
std::vector<WhatIfPlan> make_plans(const SiteRegistry& sites,
                                   std::size_t count) {
  static constexpr std::int64_t kPcts[] = {5, 10, 20, 25, 50, 75, 100};
  std::vector<WhatIfPlan> plans;
  for (std::size_t k = 0; k < count; ++k)
    plans.push_back(
        {static_cast<analysis::SiteId>(k % sites.size()),
         kPcts[k % (sizeof(kPcts) / sizeof(kPcts[0]))]});
  return plans;
}

void expect_engine_matches_oracle(const Trace& t,
                                     const std::string& label,
                                     std::size_t plan_count = 20) {
  const TraceIndex index(t);
  const SiteRegistry sites(index);
  if (sites.size() == 0) return;
  const WhatIfDag dag(index, sites);
  WhatIfEngine engine(dag);
  for (const WhatIfPlan& plan : make_plans(sites, plan_count)) {
    const WhatIfResult& fast = engine.run(plan);
    const WhatIfResult slow = whatif::whatif_oracle(index, sites, plan);
    ASSERT_EQ(fast, slow) << label << " site "
                          << sites.name(plan.site) << " pct " << plan.pct;
  }
}

/// run() on one engine and run_many() on a fresh one, both against the
/// oracle, over `plans`.
void expect_run_and_run_many_match_oracle(const Trace& t,
                                          const std::string& label,
                                          const std::vector<WhatIfPlan>& plans,
                                          std::size_t threads) {
  const TraceIndex index(t);
  const SiteRegistry sites(index);
  const WhatIfDag dag(index, sites);
  std::vector<WhatIfResult> slow;
  for (const WhatIfPlan& plan : plans)
    slow.push_back(whatif::whatif_oracle(index, sites, plan));
  WhatIfEngine serial(dag);
  for (std::size_t i = 0; i < plans.size(); ++i)
    ASSERT_EQ(serial.run(plans[i]), slow[i])
        << label << " run site " << sites.name(plans[i].site) << " pct "
        << plans[i].pct;
  support::TaskPool pool(threads);
  WhatIfEngine batched(dag);
  const std::vector<WhatIfResult> fast = batched.run_many(plans, pool);
  for (std::size_t i = 0; i < plans.size(); ++i)
    ASSERT_EQ(fast[i], slow[i])
        << label << " run_many site " << sites.name(plans[i].site)
        << " pct " << plans[i].pct;
}

/// The registry a trace should produce, computed straight from event
/// kinds: every (kind, id) region an event names, sorted and unique.
std::vector<analysis::Site> sites_named_by_events(const Trace& t) {
  using analysis::SiteKind;
  using trace::EventKind;
  std::set<std::pair<SiteKind, std::uint32_t>> named;
  for (const trace::Event& e : t) {
    switch (e.kind) {
      case EventKind::kStmtEnter:
      case EventKind::kStmtExit:
        if (e.id != 0) named.emplace(SiteKind::kStatement, e.id);
        break;
      case EventKind::kLoopBegin:
      case EventKind::kLoopEnd:
      case EventKind::kIterBegin:
      case EventKind::kIterEnd:
        named.emplace(SiteKind::kLoop, e.object);
        break;
      case EventKind::kLockAcquire:
      case EventKind::kLockRelease:
        named.emplace(SiteKind::kLock, e.object);
        break;
      case EventKind::kAdvance:
      case EventKind::kAwaitBegin:
      case EventKind::kAwaitEnd:
        named.emplace(SiteKind::kSync, e.object);
        break;
      case EventKind::kSemAcquire:
      case EventKind::kSemRelease:
        named.emplace(SiteKind::kSemaphore, e.object);
        break;
      case EventKind::kBarrierArrive:
      case EventKind::kBarrierDepart:
        named.emplace(SiteKind::kBarrier, e.object);
        break;
      default:
        break;
    }
  }
  std::vector<analysis::Site> out;
  for (const auto& [kind, id] : named) out.push_back({kind, id});
  return out;
}

void expect_registry_matches_event_kinds(const Trace& t,
                                         const std::string& label) {
  const TraceIndex index(t);
  const SiteRegistry sites(index);
  const std::vector<analysis::Site> want = sites_named_by_events(t);
  ASSERT_EQ(sites.size(), want.size()) << label;
  for (analysis::SiteId s = 0; s < sites.size(); ++s) {
    EXPECT_EQ(sites.site(s).kind, want[s].kind) << label << " site " << s;
    EXPECT_EQ(sites.site(s).id, want[s].id) << label << " site " << s;
  }
}

// ---- spec parsing ---------------------------------------------------------

TEST(WhatIfSpec, ParsesWellFormedSpecs) {
  std::string error;
  const auto spec = whatif::parse_whatif_spec("stmt#5:40", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->site, "stmt#5");
  EXPECT_EQ(spec->pct, 40);
  EXPECT_EQ(whatif::parse_whatif_spec("lock#2:100", &error)->pct, 100);
  EXPECT_EQ(whatif::parse_whatif_spec("loop#1:1", &error)->site, "loop#1");
}

TEST(WhatIfSpec, RejectsMalformedSpecs) {
  for (const char* bad : {"no-colon", "stmt#5:", ":50", "stmt#5:0",
                          "stmt#5:101", "stmt#5:abc", "stmt#5:-3",
                          "stmt#5:1e2", ""}) {
    std::string error;
    EXPECT_FALSE(whatif::parse_whatif_spec(bad, &error).has_value())
        << "'" << bad << "' should be rejected";
    EXPECT_FALSE(error.empty()) << bad;
  }
}

// ---- shared site registry -------------------------------------------------

TEST(SiteRegistry, InternsAndParsesCanonicalNames) {
  const Trace t = recovered_trace(17, 8, 500);
  const TraceIndex index(t);
  const SiteRegistry sites(index);
  ASSERT_GT(sites.size(), 0u);
  std::set<std::string> seen;
  for (analysis::SiteId s = 0; s < sites.size(); ++s) {
    const std::string& name = sites.name(s);
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
    // parse() is the exact inverse of name().
    const auto parsed = sites.parse(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, s) << name;
  }
  EXPECT_FALSE(sites.parse("bogus#1").has_value());
  EXPECT_FALSE(sites.parse("stmt5").has_value());
  EXPECT_EQ(sites.parse("stmt#4294967295").value_or(SiteRegistry::npos),
            SiteRegistry::npos);
}

TEST(SiteRegistry, EqualsSortedUniqueSitesNamedByEvents) {
  for (const int loop : {3, 4, 17})
    for (const std::uint32_t procs : {1u, 8u})
      expect_registry_matches_event_kinds(
          recovered_trace(loop, procs, 200),
          "lfk" + std::to_string(loop) + " procs " + std::to_string(procs));
  for (const workload::Family family : kAllFamilies)
    for (const std::uint64_t seed : {1u, 2u})
      expect_registry_matches_event_kinds(
          recovered_workload_trace(family, seed, 8),
          std::string(workload::family_name(family)) + ":" +
              std::to_string(seed));

  // A repaired fault-injected trace, plus statement events with id 0
  // (unknown provenance): those name no site.
  experiments::Setup setup;
  const auto run = experiments::run_concurrent_experiment(
      17, 200, setup, experiments::PlanKind::kFull);
  Trace t = trace::repair(trace::inject_violation(
                              run.measured,
                              trace::ViolationKind::kDuplicateAdvance))
                .repaired;
  ASSERT_GT(t.size(), 0u);
  const Tick end = t[t.size() - 1].time;
  trace::Event anon;
  anon.proc = 0;
  anon.id = 0;
  anon.time = end + 1;
  anon.kind = trace::EventKind::kStmtEnter;
  t.append(anon);
  anon.time = end + 2;
  anon.kind = trace::EventKind::kStmtExit;
  t.append(anon);
  expect_registry_matches_event_kinds(t, "repaired duplicate-advance");
  const TraceIndex index(t);
  const SiteRegistry sites(index);
  EXPECT_EQ(sites.find({analysis::SiteKind::kStatement, 0}),
            SiteRegistry::npos);
  EXPECT_EQ(sites.site_of_event(anon), SiteRegistry::npos);
}

TEST(SiteRegistry, WaitingAndCriticalPathShareSiteNames) {
  const Trace t = recovered_trace(17, 8, 500);
  const TraceIndex index(t);
  const SiteRegistry sites(index);

  const auto waits = analysis::waiting_analysis(index, {});
  const std::vector<Tick> by_site = analysis::waiting_by_site(waits, sites);
  ASSERT_EQ(by_site.size(), sites.size());
  Tick attributed = 0, total = 0;
  for (const Tick w : by_site) {
    EXPECT_GE(w, 0);
    attributed += w;
  }
  for (const Tick w : waits.waiting_time) total += w;
  EXPECT_EQ(attributed, total);  // every interval names a sync object

  const auto cp = analysis::critical_path(index);
  const std::vector<Tick> cp_site = analysis::path_time_by_site(cp, t, sites);
  ASSERT_EQ(cp_site.size(), sites.size());
  Tick cp_attr = 0;
  for (const Tick w : cp_site) cp_attr += w;
  EXPECT_GT(cp_attr, 0);
  EXPECT_LE(cp_attr, cp.length);

  // Both renderings draw names from the same registry.
  const std::string wr = analysis::render_waiting_by_site(waits, sites);
  const std::string cr = analysis::render_critical_path_sites(cp, t, sites);
  for (analysis::SiteId s = 0; s < sites.size(); ++s) {
    if (by_site[s] > 0) {
      EXPECT_NE(wr.find(sites.name(s)), std::string::npos);
    }
    if (cp_site[s] > 0) {
      EXPECT_NE(cr.find(sites.name(s)), std::string::npos);
    }
  }
}

// ---- engine vs oracle -----------------------------------------------------

TEST(WhatIfEngine, MatchesReferenceAcrossLivermoreSuite) {
  // Every kernel of the suite at 1, 2 and 8 processors, >= 20 plans each.
  for (int loop = 1; loop <= loops::kNumKernels; ++loop) {
    for (const std::uint32_t procs : {1u, 2u, 8u}) {
      const Trace t = recovered_trace(loop, procs, 100);
      expect_engine_matches_oracle(
          t, "loop " + std::to_string(loop) + " procs " +
                 std::to_string(procs));
    }
  }
}

TEST(WhatIfEngine, MatchesReferenceOnFaultInjectedRepairedTraces) {
  experiments::Setup setup;
  const auto run = experiments::run_concurrent_experiment(
      17, 400, setup, experiments::PlanKind::kFull);
  for (const auto kind :
       {trace::ViolationKind::kNonMonotoneProcessorTime,
        trace::ViolationKind::kAwaitEndBeforeAdvance,
        trace::ViolationKind::kDuplicateAdvance,
        trace::ViolationKind::kLockOverlap,
        trace::ViolationKind::kBarrierOrder}) {
    const Trace faulted = trace::inject_violation(run.measured, kind);
    const trace::RepairResult repaired = trace::repair(faulted);
    expect_engine_matches_oracle(
        repaired.repaired,
        std::string("repaired ") + trace::violation_kind_name(kind));
    // The raw (unrepaired) faulted trace must agree too: the engine and the
    // oracle share the degenerate-case arithmetic, not just the happy path.
    expect_engine_matches_oracle(
        faulted, std::string("faulted ") + trace::violation_kind_name(kind),
        8);
  }
  // Degraded capture: dropped events and skewed clocks.
  const Trace dropped = trace::drop_random_events(run.measured, 0.05, 1991);
  expect_engine_matches_oracle(dropped, "dropped", 8);
  const Trace skewed = trace::skew_timestamps(run.measured, 40, 0.2, 7);
  expect_engine_matches_oracle(skewed, "skewed", 8);
}

TEST(WhatIfEngine, MatchesReferenceAcrossWorkloadFamilies) {
  // Every synthesized family — contention's locks and semaphores,
  // irregular's barriers and nested loops, bursty's interference — at 1, 2
  // and 8 processors, every site at least once, via run and run_many.
  for (const workload::Family family : kAllFamilies) {
    for (const std::uint64_t seed : {1u, 2u}) {
      for (const std::uint32_t procs : {1u, 2u, 8u}) {
        const Trace t = recovered_workload_trace(family, seed, procs);
        const TraceIndex index(t);
        const SiteRegistry sites(index);
        if (sites.size() == 0) continue;
        expect_run_and_run_many_match_oracle(
            t,
            std::string(workload::family_name(family)) + ":" +
                std::to_string(seed) + " procs " + std::to_string(procs),
            make_plans(sites, std::max<std::size_t>(20, sites.size())), 2);
      }
    }
  }
}

TEST(WhatIfEngine, RunManyReusesScratchAcrossUnevenBlocks) {
  // 11 distinct plans split into blocks of 6 and 5; on one thread the same
  // worker scratch serves both block sizes back to back.
  const Trace t =
      recovered_workload_trace(workload::Family::kContention, 1, 8);
  const TraceIndex index(t);
  const SiteRegistry sites(index);
  std::vector<WhatIfPlan> plans;
  for (std::size_t k = 0; k < 11; ++k)
    plans.push_back({static_cast<analysis::SiteId>(k % sites.size()),
                     static_cast<std::int64_t>(30 + k)});
  expect_run_and_run_many_match_oracle(t, "contention:1 procs 8", plans, 1);
}

TEST(WhatIfEngine, RunManyMatchesReferenceAtBothRowWidths) {
  // A block's rows are as wide as its lane count rounds up to: 1, 2, 4 or
  // 8.  On one thread every plan count up to 8 is one block, and 9 plans
  // run a 5-lane block and then a 4-lane block on the same scratch,
  // narrowing its rows.
  const Trace t =
      recovered_workload_trace(workload::Family::kContention, 2, 8);
  const TraceIndex index(t);
  const SiteRegistry sites(index);
  for (const std::size_t m : {1u, 2u, 3u, 4u, 5u, 8u, 9u})
    expect_run_and_run_many_match_oracle(
        t, "contention:2 procs 8, " + std::to_string(m) + " plans",
        make_plans(sites, m), 1);
}

TEST(WhatIfEngine, MatchesReferenceWhenLoopEpisodesOverlap) {
  // The same kernel run twice back to back, with the first run's LoopEnd
  // lost from the capture: the first episode then runs to the end of the
  // trace, over the second episode of the same loop, and events inside
  // both are still members once.
  for (const int loop : {3, 17}) {
    const Trace once = recovered_trace(loop, 2, 100);
    ASSERT_GT(once.size(), 0u);
    const Tick shift = once[once.size() - 1].time + 1;
    Trace twice(once.info());
    bool lost = false;
    for (const trace::Event& e : once) {
      if (!lost && e.kind == trace::EventKind::kLoopEnd) {
        lost = true;
        continue;
      }
      twice.append(e);
    }
    ASSERT_TRUE(lost);
    for (trace::Event e : once) {
      e.time += shift;
      twice.append(e);
    }
    const TraceIndex index(twice);
    ASSERT_EQ(index.loops().size(), 2u);
    ASSERT_EQ(index.loops()[0].end_index, TraceIndex::npos);
    expect_engine_matches_oracle(twice,
                                 "lfk" + std::to_string(loop) + " twice");
  }
}

/// Hand-built traces for the membership edge cases.  Each event advances
/// the clock by a deterministic spread of costs, so per-event removals are
/// uneven and mostly nonzero.
class TraceBuilder {
 public:
  explicit TraceBuilder(std::uint32_t procs)
      : t_(trace::TraceInfo{"membership", procs, 1.0}) {}
  TraceBuilder& add(trace::ProcId proc, trace::EventKind kind,
                    trace::ObjectId object = 0, trace::EventId id = 0) {
    now_ += 7 + static_cast<Tick>((t_.size() * 37) % 53);
    t_.append({now_, 0, id, object, proc, kind});
    return *this;
  }
  TraceBuilder& stmt(trace::ProcId proc, trace::EventId id) {
    add(proc, trace::EventKind::kStmtEnter, 0, id);
    return add(proc, trace::EventKind::kStmtExit, 0, id);
  }
  Trace take() { return std::move(t_); }

 private:
  Trace t_;
  Tick now_ = 0;
};

/// run() and run_many() against the oracle on a hand-built trace, every
/// site at several speedups.
void expect_membership_case_matches_oracle(const Trace& t,
                                           const std::string& label) {
  const TraceIndex index(t);
  const SiteRegistry sites(index);
  ASSERT_GT(sites.size(), 0u) << label;
  expect_run_and_run_many_match_oracle(
      t, label, make_plans(sites, std::max<std::size_t>(21, 3 * sites.size())),
      2);
}

TEST(WhatIfEngine, MatchesReferenceWhenLockIsHeldAcrossLoopBoundary) {
  using trace::EventKind;
  TraceBuilder b(3);
  for (trace::ProcId p = 0; p < 3; ++p) b.stmt(p, 1);
  b.add(0, EventKind::kLockAcquire, 7);  // held into the episode ...
  b.stmt(0, 2);
  b.add(0, EventKind::kLoopBegin, 1);
  b.stmt(1, 3).stmt(2, 3);
  b.add(1, EventKind::kLockAcquire, 8);  // acquired inside it ...
  b.stmt(1, 4);
  b.add(0, EventKind::kLockRelease, 7);  // ... released inside it
  b.stmt(0, 3).stmt(2, 4);
  b.add(0, EventKind::kLoopEnd, 1);
  b.stmt(1, 4).stmt(0, 5);
  b.add(1, EventKind::kLockRelease, 8);  // ... released after it
  for (trace::ProcId p = 0; p < 3; ++p) b.stmt(p, 5);
  const Trace t = b.take();
  const TraceIndex index(t);
  ASSERT_EQ(index.loops().size(), 1u);
  ASSERT_NE(index.loops()[0].end_index, TraceIndex::npos);
  expect_membership_case_matches_oracle(t, "lock across loop boundary");
}

TEST(WhatIfEngine, MatchesReferenceWhenCriticalSectionsInterleave) {
  // Each holder's section is interleaved with the other processors' work;
  // the lock is handed off round-robin, re-acquired once while held, and
  // released once by a processor that does not hold it.
  using trace::EventKind;
  TraceBuilder b(3);
  for (int round = 0; round < 3; ++round) {
    for (trace::ProcId p = 0; p < 3; ++p) {
      const auto q = static_cast<trace::ProcId>((p + 1) % 3);
      const auto r = static_cast<trace::ProcId>((p + 2) % 3);
      b.add(p, EventKind::kLockAcquire, 9);
      b.stmt(p, 6).stmt(q, 7).stmt(r, 7);
      if (round == 1 && p == 1) b.add(p, EventKind::kLockAcquire, 9);
      b.add(q, EventKind::kStmtEnter, 0, 8);
      b.stmt(p, 6);
      b.add(q, EventKind::kStmtExit, 0, 8);
      b.add(p, EventKind::kLockRelease, 9);
      if (round == 2 && p == 0) b.add(r, EventKind::kLockRelease, 9);
    }
  }
  expect_membership_case_matches_oracle(b.take(),
                                        "interleaved critical sections");
}

TEST(WhatIfEngine, MatchesReferenceWhenLockIsHeldAtTraceEnd) {
  // Processor 0 never releases lock 4; processor 1's last event acquires
  // lock 5, so that section holds no event at all.
  using trace::EventKind;
  TraceBuilder b(3);
  for (trace::ProcId p = 0; p < 3; ++p) b.stmt(p, 1);
  b.add(1, EventKind::kLockAcquire, 4);
  b.stmt(1, 2);
  b.add(1, EventKind::kLockRelease, 4);
  b.add(0, EventKind::kLockAcquire, 4);
  b.stmt(0, 2).stmt(2, 3);
  b.add(1, EventKind::kLockAcquire, 5);
  b.stmt(0, 3).stmt(2, 3).stmt(0, 2);
  expect_membership_case_matches_oracle(b.take(), "lock held at trace end");
}

TEST(WhatIfEngine, MatchesReferenceWhenLoopIsTruncated) {
  // The capture ends inside the loop's only episode: its members run to the
  // end of the trace, on every processor.
  using trace::EventKind;
  TraceBuilder b(3);
  b.stmt(0, 1);
  b.add(0, EventKind::kLoopBegin, 2);
  b.stmt(1, 2).stmt(2, 2).stmt(0, 2);
  b.add(1, EventKind::kLockAcquire, 3);
  b.stmt(1, 3).stmt(2, 4);
  b.add(1, EventKind::kLockRelease, 3);
  b.stmt(0, 4).stmt(1, 4).stmt(2, 2);
  const Trace t = b.take();
  const TraceIndex index(t);
  ASSERT_EQ(index.loops().size(), 1u);
  ASSERT_EQ(index.loops()[0].end_index, TraceIndex::npos);
  expect_membership_case_matches_oracle(t, "truncated loop");
}

TEST(WhatIfEngine, MatchesReferenceWhenProcessorsEndTogether) {
  // Processors 0 and 1 end at the same tick; the critical path starts at
  // the later of the two in trace order (processor 1, length 50, where
  // processor 0's chain would give 90).  Speeding up stmt#3 on processor 2
  // keeps the tie, so a sweep lane walks from it too.
  using trace::EventKind;
  Trace t(trace::TraceInfo{"tie", 3, 1.0});
  const auto add = [&](Tick time, trace::ProcId proc, EventKind kind,
                       trace::EventId id) {
    t.append({time, 0, id, 0, proc, kind});
  };
  add(10, 0, EventKind::kStmtEnter, 1);
  add(30, 2, EventKind::kStmtEnter, 3);
  add(40, 2, EventKind::kStmtExit, 3);
  add(50, 1, EventKind::kStmtEnter, 2);
  add(100, 0, EventKind::kStmtExit, 1);
  add(100, 1, EventKind::kStmtExit, 2);
  const TraceIndex index(t);
  const SiteRegistry sites(index);
  const WhatIfDag dag(index, sites);
  EXPECT_EQ(dag.baseline_critical_path(), 50);
  EXPECT_EQ(dag.baseline_critical_path(),
            analysis::critical_path(index).length);
  expect_membership_case_matches_oracle(t, "processors end together");
}

// ---- determinism, memoization, batching -----------------------------------

TEST(WhatIfEngine, BitIdenticalAtAnyThreadCount) {
  // The block partition depends on the pool size (one block per worker
  // while there are plans for it), so every plan count is run at pool sizes
  // that split it into one-lane blocks, uneven blocks and full-width
  // blocks; the results must not depend on the split.
  const Trace t = recovered_trace(17, 8, 1000);
  const TraceIndex index(t);
  const SiteRegistry sites(index);
  const WhatIfDag dag(index, sites);
  const std::vector<WhatIfPlan> all = make_plans(sites, 17);
  std::vector<WhatIfResult> slow;
  for (const WhatIfPlan& plan : all)
    slow.push_back(whatif::whatif_oracle(index, sites, plan));

  std::vector<WhatIfResult> ranked;  // rank's results by site, at pool 1
  for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    support::TaskPool pool(threads);
    for (const std::size_t m : {1u, 2u, 3u, 5u, 9u, 17u}) {
      const std::vector<WhatIfPlan> plans(
          all.begin(), all.begin() + static_cast<std::ptrdiff_t>(m));
      WhatIfEngine engine(dag);  // fresh engine: no memo carry-over
      const std::vector<WhatIfResult> fast = engine.run_many(plans, pool);
      ASSERT_EQ(fast.size(), m);
      for (std::size_t i = 0; i < m; ++i)
        EXPECT_EQ(fast[i], slow[i])
            << "pool " << threads << ", " << m << " plans, plan " << i;
    }

    WhatIfEngine engine(dag);
    const auto ranking = engine.rank(50, pool, sites.size());
    ASSERT_EQ(ranking.size(), sites.size()) << "pool " << threads;
    std::vector<WhatIfResult> by_site(sites.size());
    for (const whatif::SiteImpact& e : ranking) by_site[e.site] = e.result;
    if (ranked.empty()) {
      ranked = by_site;
      for (analysis::SiteId s = 0; s < sites.size(); ++s)
        EXPECT_EQ(ranked[s], whatif::whatif_oracle(index, sites, {s, 50}))
            << sites.name(s);
    }
    EXPECT_EQ(by_site, ranked) << "pool " << threads;
  }

  // And the serial run() path agrees with the batched path.
  WhatIfEngine serial(dag);
  for (std::size_t i = 0; i < all.size(); ++i)
    EXPECT_EQ(serial.run(all[i]), slow[i]) << i;
}

TEST(WhatIfEngine, SparseRunBeforeAndAfterRunManyMatchesReference) {
  // One engine serves run() calls on both sides of a batch: the one-lane
  // blocks before the batch and the memo they fill leave run_many's
  // results intact, and run() after the batch still matches the oracle.
  const Trace t =
      recovered_workload_trace(workload::Family::kContention, 1, 8);
  const TraceIndex index(t);
  const SiteRegistry sites(index);
  const WhatIfDag dag(index, sites);
  const std::vector<WhatIfPlan> plans =
      make_plans(sites, std::max<std::size_t>(21, 3 * sites.size()));
  const std::size_t third = plans.size() / 3;
  const auto at = [&](std::size_t i) {
    return plans.begin() + static_cast<std::ptrdiff_t>(i);
  };
  WhatIfEngine engine(dag);
  support::TaskPool pool(3);
  const auto check = [&](std::size_t i, const WhatIfResult& fast,
                         const char* path) {
    EXPECT_EQ(fast, whatif::whatif_oracle(index, sites, plans[i]))
        << path << " site " << sites.name(plans[i].site) << " pct "
        << plans[i].pct;
  };
  for (std::size_t i = 0; i < third; ++i) check(i, engine.run(plans[i]), "run");
  const std::vector<WhatIfPlan> batch(at(third), at(2 * third));
  const std::vector<WhatIfResult> fast = engine.run_many(batch, pool);
  for (std::size_t i = 0; i < batch.size(); ++i)
    check(third + i, fast[i], "run_many");
  for (std::size_t i = 2 * third; i < plans.size(); ++i)
    check(i, engine.run(plans[i]), "run after run_many");
}

TEST(WhatIfEngine, EmptySweepsReturnEmpty) {
  // A trace whose events name no region has no sites to rank, and an
  // empty batch evaluates nothing.
  TraceBuilder b(2);
  b.add(0, trace::EventKind::kProgramBegin);
  b.stmt(0, 0).stmt(1, 0);
  b.add(1, trace::EventKind::kUser);
  b.add(0, trace::EventKind::kProgramEnd);
  const Trace t = b.take();
  const TraceIndex index(t);
  const SiteRegistry sites(index);
  ASSERT_EQ(sites.size(), 0u);
  const WhatIfDag dag(index, sites);
  WhatIfEngine engine(dag);
  support::TaskPool pool(4);
  EXPECT_TRUE(engine.rank(50, pool, 10).empty());
  EXPECT_TRUE(engine.run_many({}, pool).empty());
}

TEST(WhatIfEngine, MemoizesPerSitePctCell) {
  const Trace t = recovered_trace(17, 2, 300);
  const TraceIndex index(t);
  const SiteRegistry sites(index);
  support::Metrics::enable(true);  // before the DAG: its edge gauge records
  support::Metrics::reset();       // at construction time
  const WhatIfDag dag(index, sites);
  WhatIfEngine engine(dag);
  const WhatIfPlan plan{0, 50};
  const WhatIfResult& first = engine.run(plan);
  const WhatIfResult& again = engine.run(plan);
  EXPECT_EQ(&first, &again);  // served from the memo, not recomputed
  auto snap = support::Metrics::snapshot();
  EXPECT_EQ(snap.counters.at("whatif.experiments"), 1u);
  EXPECT_EQ(snap.counters.at("whatif.memo.hits"), 1u);
  EXPECT_GT(snap.counters.at("whatif.frontier.events"), 0u);
  EXPECT_GT(snap.gauges.at("whatif.dag.edges"), 0);

  // A batch with duplicates evaluates each distinct cell exactly once.
  support::Metrics::reset();
  support::TaskPool pool(2);
  std::vector<WhatIfPlan> plans = {{1, 25}, {1, 25}, {1, 25}, {2, 25}};
  const auto results = engine.run_many(plans, pool);
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
  snap = support::Metrics::snapshot();
  EXPECT_EQ(snap.counters.at("whatif.experiments"), 2u);
  support::Metrics::enable(false);
}

TEST(WhatIfEngine, SpeedupNeverIncreasesMakespanOnRecoveredTraces) {
  // Recovered traces are causally consistent, so every local cost is
  // nonnegative and a virtual speedup can only shrink the execution.
  const Trace t = recovered_trace(17, 8, 500);
  const TraceIndex index(t);
  const SiteRegistry sites(index);
  const WhatIfDag dag(index, sites);
  WhatIfEngine engine(dag);
  for (const WhatIfPlan& plan : make_plans(sites, 20)) {
    const WhatIfResult& r = engine.run(plan);
    EXPECT_LE(r.makespan, dag.baseline_makespan()) << sites.name(plan.site);
    EXPECT_LE(r.critical_path, dag.baseline_critical_path())
        << sites.name(plan.site);
  }
}

TEST(WhatIfEngine, RankOrdersSitesByMakespanSavings) {
  const Trace t = recovered_trace(17, 8, 500);
  const TraceIndex index(t);
  const SiteRegistry sites(index);
  const WhatIfDag dag(index, sites);
  WhatIfEngine engine(dag);
  support::TaskPool pool(2);

  const auto top = engine.rank(50, pool, 5);
  ASSERT_LE(top.size(), 5u);
  ASSERT_GT(top.size(), 0u);
  for (std::size_t i = 1; i < top.size(); ++i)
    EXPECT_GE(top[i - 1].savings, top[i].savings);
  for (const auto& e : top) {
    EXPECT_EQ(e.savings, dag.baseline_makespan() - e.result.makespan);
    EXPECT_EQ(engine.run({e.site, 50}), e.result);
  }
  // Deterministic: a second sweep (fully memoized) ranks identically.
  const auto again = engine.rank(50, pool, 5);
  ASSERT_EQ(again.size(), top.size());
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(again[i].site, top[i].site);
    EXPECT_EQ(again[i].savings, top[i].savings);
  }

  // The rendering names sites through the shared registry.
  const std::string table = whatif::render_whatif_ranking(dag, 50, top);
  for (const auto& e : top)
    EXPECT_NE(table.find(sites.name(e.site)), std::string::npos);
}

TEST(WhatIfEngine, RejectsInvalidPlans) {
  const Trace t = recovered_trace(3, 2, 100);
  const TraceIndex index(t);
  const SiteRegistry sites(index);
  const WhatIfDag dag(index, sites);
  WhatIfEngine engine(dag);
  EXPECT_THROW(engine.run({static_cast<analysis::SiteId>(sites.size()), 50}),
               std::invalid_argument);
  EXPECT_THROW(engine.run({0, 0}), std::invalid_argument);
  EXPECT_THROW(engine.run({0, 101}), std::invalid_argument);
}

TEST(WhatIfDag, BaselineMatchesRecoveredTrace) {
  for (const std::uint32_t procs : {1u, 2u, 8u}) {
    const Trace t = recovered_trace(4, procs, 300);
    const TraceIndex index(t);
    const SiteRegistry sites(index);
    const WhatIfDag dag(index, sites);
    // The DAG's baseline evaluation reproduces the recovered execution: its
    // makespan spans the per-processor chain endpoints, and its critical
    // path equals the critical-path analysis on the same trace.
    Tick lo = 0, hi = 0;
    bool seen = false;
    for (std::size_t p = 0; p < index.num_procs(); ++p) {
      const auto& evs = index.events_of(static_cast<trace::ProcId>(p));
      if (evs.empty()) continue;
      if (!seen || t[evs.front()].time < lo) lo = t[evs.front()].time;
      if (!seen || t[evs.back()].time > hi) hi = t[evs.back()].time;
      seen = true;
    }
    EXPECT_EQ(dag.baseline_makespan(), seen ? hi - lo : 0);
    EXPECT_EQ(dag.baseline_critical_path(),
              analysis::critical_path(index).length)
        << "procs " << procs;
  }
}

}  // namespace
}  // namespace perturb
