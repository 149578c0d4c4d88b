// Tests for event-based perturbation analysis (§4): the advance/await
// formulae, the Figure 2 wait-removal/introduction corrections, barrier and
// lock models, feasibility of the approximation, and recovery accuracy on
// the dependent-loop scenarios that defeat time-based analysis.
#include <gtest/gtest.h>

#include <iterator>
#include <map>

#include "core/eventbased.hpp"
#include "core/timebased.hpp"
#include "golden_cases.hpp"
#include "golden_digests.hpp"
#include "instr/plan.hpp"
#include "sim/engine.hpp"
#include "trace/trace_stats.hpp"
#include "trace/validate.hpp"
#include "trace_digest.hpp"

namespace perturb::core {
namespace {

using trace::EventKind;
using trace::Tick;
using trace::Trace;

AnalysisOverheads overheads_from_plan(const instr::InstrumentationPlan& plan,
                                      const sim::MachineConfig& cfg) {
  AnalysisOverheads ov;
  for (std::uint8_t k = 0; k < trace::kNumEventKinds; ++k)
    ov.probe[k] = plan.mean_cost(static_cast<EventKind>(k));
  ov.s_nowait = cfg.await_check_cost;
  ov.s_wait = cfg.await_resume_cost;
  ov.lock_acquire = cfg.lock_acquire_cost;
  ov.barrier_depart = cfg.barrier_depart_cost;
  return ov;
}

sim::Program chain_program(std::int64_t trip, sim::Cycles pre,
                           sim::Cycles guarded, bool traced_guarded = false) {
  sim::Program p;
  const auto var = p.declare_sync_var("S");
  sim::Block body;
  if (pre > 0) body.nodes.push_back(sim::compute("pre", pre));
  body.nodes.push_back(sim::await(var, {1, -1}));
  if (traced_guarded)
    body.nodes.push_back(sim::compute("upd", guarded));
  else
    body.nodes.push_back(sim::raw_compute("upd", guarded));
  body.nodes.push_back(sim::advance(var, {1, 0}));
  p.root().nodes.push_back(sim::par_loop("l", sim::LoopKind::kDoacross,
                                         sim::Schedule::kCyclic, trip,
                                         std::move(body)));
  p.finalize();
  return p;
}

struct Pipeline {
  Trace actual;
  Trace measured;
  EventBasedResult result;
  AnalysisOverheads ov;
};

Pipeline run(const sim::Program& prog, const sim::MachineConfig& cfg,
             const instr::InstrumentationPlan& plan,
             const EventBasedOptions& opt = {}) {
  Pipeline p;
  p.actual = sim::simulate_actual(cfg, prog, "a");
  p.measured = sim::simulate(cfg, prog, plan, "m");
  p.ov = overheads_from_plan(plan, cfg);
  p.result = event_based_approximation(p.measured, p.ov, opt);
  return p;
}

double total_ratio(const Trace& approx, const Trace& actual) {
  return static_cast<double>(approx.total_time()) /
         static_cast<double>(actual.total_time());
}

// ---- exactness and feasibility ------------------------------------------

TEST(EventBased, IdentityWithZeroOverheads) {
  // A zero-cost "measurement" is the actual trace; the analysis must return
  // it unchanged (up to the modelled sync processing costs, which match).
  const sim::MachineConfig cfg{.num_procs = 4};
  const auto prog = chain_program(32, 50, 10);
  const auto actual = sim::simulate_actual(cfg, prog, "a");
  AnalysisOverheads ov;
  ov.s_nowait = cfg.await_check_cost;
  ov.s_wait = cfg.await_resume_cost;
  ov.lock_acquire = cfg.lock_acquire_cost;
  ov.barrier_depart = cfg.barrier_depart_cost;
  const auto result = event_based_approximation(actual, ov);
  const auto cmp = trace::compare(result.approx, actual);
  EXPECT_EQ(cmp.matched_events, actual.size());
  EXPECT_EQ(cmp.max_abs_time_error, 0);
}

TEST(EventBased, ApproximationIsFeasible) {
  // The reconstructed trace must satisfy every causality rule a real trace
  // does (§4.1's conservative-approximation guarantee).
  const sim::MachineConfig cfg{.num_procs = 8};
  const auto prog = chain_program(64, 40, 12);
  const auto plan = instr::InstrumentationPlan::full({175.0, 0.05},
                                                     {90.0, 0.05},
                                                     {60.0, 0.05}, 5);
  const auto p = run(prog, cfg, plan);
  const auto violations = trace::validate(p.result.approx);
  EXPECT_TRUE(violations.empty()) << trace::describe(violations);
}

TEST(EventBased, RecoversChainBoundLoop) {
  // Loop-3 scenario: actual is chain-bound, instrumentation removes the
  // blocking; event-based analysis must restore it.
  const sim::MachineConfig cfg{.num_procs = 8};
  const auto prog = chain_program(256, 36, 6);
  const auto plan = instr::InstrumentationPlan::full({175.0, 0.0}, {90.0, 0.0},
                                                     {60.0, 0.0}, 1);
  const auto p = run(prog, cfg, plan);
  EXPECT_GT(total_ratio(p.measured, p.actual), 1.5);  // heavily perturbed
  EXPECT_NEAR(total_ratio(p.result.approx, p.actual), 1.0, 0.08);

  // Time-based analysis of the Table 1 instrumentation (statements only —
  // without sync probes the chain's blocking disappears entirely in the
  // measurement) misses badly.
  const auto t1_plan =
      instr::InstrumentationPlan::statements_only({175.0, 0.0}, 1);
  const auto t1_measured = sim::simulate(cfg, prog, t1_plan, "m1");
  const auto tb = time_based_approximation(
      t1_measured, overheads_from_plan(t1_plan, cfg));
  EXPECT_LT(total_ratio(tb, p.actual), 0.7);
}

TEST(EventBased, RecoversContendedCriticalRegion) {
  // Loop-17 scenario: probes inside the guarded region inflate contention.
  const sim::MachineConfig cfg{.num_procs = 8};
  const auto prog = chain_program(256, 700, 30, /*traced_guarded=*/true);
  const auto plan = instr::InstrumentationPlan::full({175.0, 0.0}, {90.0, 0.0},
                                                     {60.0, 0.0}, 1);
  const auto p = run(prog, cfg, plan);
  EXPECT_GT(total_ratio(p.measured, p.actual), 2.0);
  EXPECT_NEAR(total_ratio(p.result.approx, p.actual), 1.0, 0.08);

  const auto tb = time_based_approximation(p.measured, p.ov);
  EXPECT_GT(total_ratio(tb, p.actual), 1.5);  // over-approximates
}

// ---- the Figure 2 corrections ------------------------------------------

TEST(EventBased, RemovesInstrumentationInducedWaiting) {
  // Probes inside the guarded region slow the chain: the measured run
  // blocks where the actual run does not.
  const sim::MachineConfig cfg{.num_procs = 4};
  const auto prog = chain_program(64, 600, 10, /*traced_guarded=*/true);
  const auto plan = instr::InstrumentationPlan::full({250.0, 0.0}, {90.0, 0.0},
                                                     {60.0, 0.0}, 1);
  const auto p = run(prog, cfg, plan);
  EXPECT_GT(p.result.waits_measured, 0u);
  EXPECT_GT(p.result.waits_removed, 0u);
  EXPECT_LT(p.result.waits_approx, p.result.waits_measured);
}

TEST(EventBased, IntroducesMaskedWaiting) {
  // The awaitB probe delays the awaiting processor past the advance: the
  // measured run shows no waiting where the actual run waits.
  const sim::MachineConfig cfg{.num_procs = 2};
  const auto prog = chain_program(16, 30, 60);
  const auto plan = instr::InstrumentationPlan::full({60.0, 0.0}, {500.0, 0.0},
                                                     {60.0, 0.0}, 1);
  const auto p = run(prog, cfg, plan);
  EXPECT_GT(p.result.waits_introduced, 0u);
  EXPECT_GT(p.result.waits_approx, p.result.waits_measured);
}

TEST(EventBased, AwaitFormulaNoWaitCase) {
  // Hand-built measured trace: advance long before awaitB.
  Trace m({"m", 2, 1.0});
  auto ev = [&](Tick t, trace::ProcId proc, EventKind k, std::int64_t pay) {
    trace::Event e;
    e.time = t;
    e.proc = proc;
    e.kind = k;
    e.object = 1;
    e.payload = pay;
    e.id = 1;
    m.append(e);
  };
  ev(10, 0, EventKind::kAdvance, 0);
  ev(100, 1, EventKind::kAwaitBegin, 0);
  ev(140, 1, EventKind::kAwaitEnd, 0);
  AnalysisOverheads ov;
  ov.s_nowait = 4;
  const auto r = event_based_approximation(m, ov);
  // t_a(awaitE) = t_a(awaitB) + s_nowait = 100 + 4.
  EXPECT_EQ(r.approx.events()[2].time, 104);
  EXPECT_EQ(r.waits_approx, 0u);
}

TEST(EventBased, AwaitFormulaWaitCase) {
  Trace m({"m", 2, 1.0});
  auto ev = [&](Tick t, trace::ProcId proc, EventKind k, std::int64_t pay) {
    trace::Event e;
    e.time = t;
    e.proc = proc;
    e.kind = k;
    e.object = 1;
    e.payload = pay;
    e.id = 1;
    m.append(e);
  };
  ev(10, 1, EventKind::kAwaitBegin, 0);
  ev(200, 0, EventKind::kAdvance, 0);
  ev(215, 1, EventKind::kAwaitEnd, 0);
  AnalysisOverheads ov;
  ov.s_wait = 8;
  const auto r = event_based_approximation(m, ov);
  // t_a(awaitE) = t_a(advance) + s_wait = 200 + 8.
  const auto& events = r.approx.events();
  for (const auto& e : events) {
    if (e.kind == EventKind::kAwaitEnd) {
      EXPECT_EQ(e.time, 208);
    }
  }
  EXPECT_EQ(r.waits_approx, 1u);
}

TEST(EventBased, DegenerateAwaitWithoutPartnerFallsBack) {
  Trace m({"m", 1, 1.0});
  trace::Event e;
  e.time = 50;
  e.kind = EventKind::kAwaitEnd;
  e.object = 1;
  e.payload = 3;
  m.append(e);
  AnalysisOverheads ov;
  const auto r = event_based_approximation(m, ov);
  EXPECT_EQ(r.approx.events()[0].time, 50);  // base rule, no crash
}

// ---- barrier model ----------------------------------------------------

TEST(EventBased, BarrierDepartsFromApproximatedArrivals) {
  Trace m({"m", 2, 1.0});
  auto ev = [&](Tick t, trace::ProcId proc, EventKind k) {
    trace::Event e;
    e.time = t;
    e.proc = proc;
    e.kind = k;
    e.object = 7;
    e.payload = 0;
    m.append(e);
  };
  ev(100, 0, EventKind::kBarrierArrive);
  ev(300, 1, EventKind::kBarrierArrive);
  ev(310, 0, EventKind::kBarrierDepart);
  ev(310, 1, EventKind::kBarrierDepart);
  AnalysisOverheads ov;
  ov.barrier_depart = 10;
  const auto r = event_based_approximation(m, ov);
  for (const auto& e : r.approx) {
    if (e.kind == EventKind::kBarrierDepart) {
      EXPECT_EQ(e.time, 310);  // max(100, 300) + 10
    }
  }
}

TEST(EventBased, BarrierModelCanBeDisabled) {
  Trace m({"m", 1, 1.0});
  auto ev = [&](Tick t, EventKind k) {
    trace::Event e;
    e.time = t;
    e.kind = k;
    e.object = 7;
    m.append(e);
  };
  ev(100, EventKind::kBarrierArrive);
  ev(150, EventKind::kBarrierDepart);
  AnalysisOverheads ov;
  ov.barrier_depart = 10;
  EventBasedOptions opt;
  opt.model_barriers = false;
  const auto r = event_based_approximation(m, ov, opt);
  EXPECT_EQ(r.approx.events()[1].time, 150);  // untouched (base rule)
}

// ---- lock model ----------------------------------------------------------

TEST(EventBased, LockHandoffPreservesMeasuredOrder) {
  Trace m({"m", 2, 1.0});
  auto ev = [&](Tick t, trace::ProcId proc, EventKind k) {
    trace::Event e;
    e.time = t;
    e.proc = proc;
    e.kind = k;
    e.object = 5;
    m.append(e);
  };
  // proc0 holds [10, 110]; proc1 requests early but acquires after release.
  ev(10, 0, EventKind::kLockAcquire);
  ev(110, 0, EventKind::kLockRelease);
  ev(120, 1, EventKind::kLockAcquire);
  ev(200, 1, EventKind::kLockRelease);
  AnalysisOverheads ov;
  ov.lock_acquire = 6;
  const auto r = event_based_approximation(m, ov);
  const auto& out = r.approx.events();
  // proc0's acquire is re-timed to its (absent) request time plus the
  // acquire cost (6); its release follows the measured hold time (100);
  // proc1's acquire lands at that release plus the acquire cost (112).
  for (const auto& e : out) {
    if (e.kind == EventKind::kLockAcquire && e.proc == 0) {
      EXPECT_EQ(e.time, 6);
    }
    if (e.kind == EventKind::kLockRelease && e.proc == 0) {
      EXPECT_EQ(e.time, 106);
    }
    if (e.kind == EventKind::kLockAcquire && e.proc == 1) {
      EXPECT_EQ(e.time, 112);
    }
  }
  EXPECT_TRUE(trace::validate(r.approx).empty());
}

TEST(EventBased, LockContentionFromProbesRemoved) {
  // DOALL with a critical section: probes inside the section stretch the
  // serialized region in the measurement; the lock model must rebuild the
  // hand-off chain with probes removed.
  sim::Program p;
  const auto lock = p.declare_lock("L");
  sim::Block body;
  body.nodes.push_back(sim::compute("pre", 50));
  body.nodes.push_back(sim::critical(lock, sim::block(sim::compute("cs", 40))));
  p.root().nodes.push_back(sim::par_loop("l", sim::LoopKind::kDoall,
                                         sim::Schedule::kCyclic, 64,
                                         std::move(body)));
  p.finalize();
  const sim::MachineConfig cfg{.num_procs = 8};
  const auto plan = instr::InstrumentationPlan::full({175.0, 0.0}, {90.0, 0.0},
                                                     {60.0, 0.0}, 1);
  const auto run_result = run(p, cfg, plan);
  EXPECT_GT(total_ratio(run_result.measured, run_result.actual), 1.5);
  EXPECT_NEAR(total_ratio(run_result.result.approx, run_result.actual), 1.0,
              0.15);
  EXPECT_TRUE(trace::validate(run_result.result.approx).empty());
}

// The batch reconstruction of every golden index trace — Livermore chains,
// locks, capacity-declared semaphores, barrier phases and a duplicate
// advance — digests to the committed value (golden_digests.hpp).
TEST(EventBased, MatchesCommittedDigests) {
  const auto cases = golden::approx_cases();
  ASSERT_EQ(cases.size(), std::size(golden::kApproxDigests));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const golden::ApproxCase& c = cases[i];
    ASSERT_EQ(c.label, golden::kApproxDigests[i].label);
    const std::uint64_t got = trace::approx_digest(
        event_based_approximation(c.measured, c.overheads, c.options));
    EXPECT_EQ(got, golden::kApproxDigests[i].value)
        << c.label << ": 0x" << std::hex << got;
  }
}

// ---- error handling ----------------------------------------------------

TEST(EventBased, EventSetAndMetadataPreserved) {
  const sim::MachineConfig cfg{.num_procs = 4};
  const auto prog = chain_program(16, 30, 10);
  const auto plan = instr::InstrumentationPlan::full({100.0, 0.0}, {50.0, 0.0},
                                                     {25.0, 0.0}, 1);
  const auto p = run(prog, cfg, plan);
  EXPECT_EQ(p.result.approx.size(), p.measured.size());
  EXPECT_NE(p.result.approx.info().name.find("event-based"),
            std::string::npos);
  // Same multiset of (proc, kind, id, payload): only times changed.
  const auto cmp = trace::compare(p.result.approx, p.measured);
  EXPECT_EQ(cmp.unmatched_a, 0u);
  EXPECT_EQ(cmp.unmatched_b, 0u);
}

}  // namespace
}  // namespace perturb::core
