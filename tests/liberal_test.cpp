// Tests for liberal analysis: DOACROSS shape extraction from measured traces
// and scheduling re-simulation.
#include <gtest/gtest.h>

#include "core/liberal.hpp"
#include "experiments/experiments.hpp"
#include "instr/plan.hpp"
#include "sim/engine.hpp"
#include "support/check.hpp"
#include "support/prng.hpp"

namespace perturb::core {
namespace {

using trace::EventKind;

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

sim::Program doacross(std::int64_t trip, std::int64_t d, sim::Cycles pre,
                      sim::Cycles guarded, sim::Cycles post,
                      sim::Schedule sched = sim::Schedule::kCyclic) {
  sim::Program p;
  const auto var = p.declare_sync_var("S");
  sim::Block body;
  body.nodes.push_back(sim::compute("pre", pre));
  body.nodes.push_back(sim::await(var, {1, -d}));
  body.nodes.push_back(sim::compute("chain", guarded));
  body.nodes.push_back(sim::advance(var, {1, 0}));
  body.nodes.push_back(sim::compute("post", post));
  p.root().nodes.push_back(sim::par_loop("l", sim::LoopKind::kDoacross, sched,
                                         trip, std::move(body)));
  p.finalize();
  return p;
}

TEST(LiberalExtract, RecoversSegmentCostsExactly) {
  const sim::MachineConfig cfg{.num_procs = 4};
  const auto prog = doacross(16, 2, 120, 35, 60);
  const auto plan = instr::InstrumentationPlan::full({150.0, 0.0}, {80.0, 0.0},
                                                     {40.0, 0.0}, 1);
  const auto measured = sim::simulate(cfg, prog, plan, "m");
  const auto shape =
      extract_doacross_shape(measured, overheads_from_plan(plan, cfg), cfg);

  EXPECT_EQ(shape.distance, 2);
  ASSERT_EQ(shape.iterations.size(), 16u);
  for (const auto& it : shape.iterations) {
    EXPECT_TRUE(it.has_advance);
    EXPECT_EQ(it.has_await, it.iteration >= 2);
    EXPECT_EQ(it.post, 60);
    if (it.has_await) {
      EXPECT_EQ(it.pre, 120) << "iteration " << it.iteration;
      EXPECT_EQ(it.chain, 35);
    } else {
      // Dependence-free first iterations have no await event, so the chain
      // work is indistinguishable from pre-await work.
      EXPECT_EQ(it.pre, 155);
      EXPECT_EQ(it.chain, 0);
    }
  }
}

TEST(LiberalExtract, HandlesDoallWithoutSync) {
  sim::Program p;
  sim::Block body;
  body.nodes.push_back(sim::compute("w", 90));
  p.root().nodes.push_back(sim::par_loop("l", sim::LoopKind::kDoall,
                                         sim::Schedule::kCyclic, 8,
                                         std::move(body)));
  p.finalize();
  const sim::MachineConfig cfg{.num_procs = 2};
  const auto plan = instr::InstrumentationPlan::full({100.0, 0.0}, {50.0, 0.0},
                                                     {30.0, 0.0}, 1);
  const auto measured = sim::simulate(cfg, p, plan, "m");
  const auto shape =
      extract_doacross_shape(measured, overheads_from_plan(plan, cfg), cfg);
  EXPECT_EQ(shape.distance, 0);
  for (const auto& it : shape.iterations) {
    EXPECT_FALSE(it.has_await);
    EXPECT_FALSE(it.has_advance);
    EXPECT_EQ(it.pre, 90);
  }
}

TEST(LiberalExtract, RejectsTraceWithoutLoop) {
  sim::Program p;
  p.root().nodes.push_back(sim::compute("a", 5));
  p.finalize();
  const sim::MachineConfig cfg{.num_procs = 1};
  const auto t = sim::simulate_actual(cfg, p, "a");
  AnalysisOverheads ov;
  EXPECT_THROW(extract_doacross_shape(t, ov, cfg), CheckError);
}

TEST(LiberalExtract, RejectsMultipleLoops) {
  sim::Program p;
  sim::Block b1;
  b1.nodes.push_back(sim::compute("a", 5));
  sim::Block b2;
  b2.nodes.push_back(sim::compute("b", 5));
  p.root().nodes.push_back(sim::par_loop("l1", sim::LoopKind::kDoall,
                                         sim::Schedule::kCyclic, 2,
                                         std::move(b1)));
  p.root().nodes.push_back(sim::par_loop("l2", sim::LoopKind::kDoall,
                                         sim::Schedule::kCyclic, 2,
                                         std::move(b2)));
  p.finalize();
  const sim::MachineConfig cfg{.num_procs = 2};
  const auto t = sim::simulate_actual(cfg, p, "a");
  AnalysisOverheads ov;
  EXPECT_THROW(extract_doacross_shape(t, ov, cfg), CheckError);
}

TEST(LiberalReplay, ReproducesActualLoopTimeWithoutJitter) {
  const sim::MachineConfig cfg{.num_procs = 4};
  const auto prog = doacross(32, 1, 100, 20, 40);
  const auto plan = instr::InstrumentationPlan::full({175.0, 0.0}, {90.0, 0.0},
                                                     {60.0, 0.0}, 1);
  const auto actual = sim::simulate_actual(cfg, prog, "a");
  const auto measured = sim::simulate(cfg, prog, plan, "m");
  const auto shape =
      extract_doacross_shape(measured, overheads_from_plan(plan, cfg), cfg);
  LiberalOptions opt;
  opt.machine = cfg;
  opt.schedule = sim::Schedule::kCyclic;
  const auto result = liberal_approximation(shape, opt);

  trace::Tick actual_begin = 0;
  trace::Tick actual_end = 0;
  for (const auto& e : actual) {
    if (e.kind == EventKind::kLoopBegin) actual_begin = e.time;
    if (e.kind == EventKind::kLoopEnd) actual_end = e.time;
  }
  // Exact segment extraction + the same machine model => exact loop time.
  EXPECT_EQ(result.loop_time, actual_end - actual_begin);
}

// Livermore 3 and 4 keep their guarded update untraced (compiler-generated
// code between awaitE and advance), so the extractor must keep the part of
// that gap the advance operation does not account for.  With exact probe
// costs the replay then reproduces the actual loop tick for tick.
TEST(LiberalReplay, ExactOnLivermoreAtZeroJitter) {
  for (const int loop : {3, 4, 17}) {
    for (const std::uint32_t procs : {1u, 2u, 8u}) {
      experiments::Setup setup;
      setup.machine.num_procs = procs;
      setup.stmt.jitter_frac = 0;
      setup.sync.jitter_frac = 0;
      setup.control.jitter_frac = 0;
      const auto run = experiments::run_concurrent_experiment(
          loop, 301, setup, experiments::PlanKind::kFull);
      const auto plan =
          experiments::make_plan(experiments::PlanKind::kFull, setup);
      const auto shape = extract_doacross_shape(
          run.measured, experiments::overheads_for(plan, setup.machine),
          setup.machine);
      LiberalOptions opt;
      opt.machine = setup.machine;
      const auto result = liberal_approximation(shape, opt);

      trace::Tick actual_loop = 0;
      for (const auto& e : run.actual) {
        if (e.kind == EventKind::kLoopBegin) actual_loop -= e.time;
        if (e.kind == EventKind::kLoopEnd) actual_loop += e.time;
      }
      EXPECT_EQ(result.loop_time, actual_loop)
          << "lfk" << loop << " on " << procs << " processors";
    }
  }
}

TEST(LiberalReplay, MappingMatchesSchedule) {
  const sim::MachineConfig cfg{.num_procs = 4};
  const auto prog = doacross(12, 1, 50, 10, 0);
  const auto plan = instr::InstrumentationPlan::full({100.0, 0.0}, {50.0, 0.0},
                                                     {30.0, 0.0}, 1);
  const auto measured = sim::simulate(cfg, prog, plan, "m");
  const auto shape =
      extract_doacross_shape(measured, overheads_from_plan(plan, cfg), cfg);
  LiberalOptions opt;
  opt.machine = cfg;
  opt.schedule = sim::Schedule::kCyclic;
  const auto result = liberal_approximation(shape, opt);
  ASSERT_EQ(result.iteration_to_proc.size(), 12u);
  for (std::size_t i = 0; i < 12; ++i)
    EXPECT_EQ(result.iteration_to_proc[i], i % 4);
  EXPECT_FALSE(result.approx.empty());
}

}  // namespace
}  // namespace perturb::core
