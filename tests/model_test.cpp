// Tests for the analytical performance model (src/model): tick-exactness
// against the discrete-event simulator on supported shapes, steady-state
// extrapolation equivalence, uncertainty behavior on the features the closed
// form cannot capture, and determinism.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/analytic.hpp"
#include "core/liberal.hpp"
#include "core/pipeline.hpp"
#include "experiments/grid.hpp"
#include "instr/plan.hpp"
#include "loops/programs.hpp"
#include "model/model.hpp"
#include "sim/engine.hpp"
#include "sim/ir.hpp"
#include "sim/machine.hpp"
#include "support/metrics.hpp"
#include "trace/event.hpp"

namespace perturb {
namespace {

using model::ModelOptions;
using model::Prediction;
using model::ProbeTable;
using sim::Block;
using sim::LoopKind;
using sim::MachineConfig;
using sim::Program;
using sim::Schedule;
using trace::EventKind;

ProbeTable table_of(const instr::InstrumentationPlan& plan) {
  ProbeTable t{};
  for (std::uint8_t k = 0; k < trace::kNumEventKinds; ++k)
    t[k] = plan.mean_cost(static_cast<EventKind>(k));
  return t;
}

/// A uniform-cost DOACROSS: pre / awaited chain / post around distance d.
Program make_doacross(std::int64_t trip, std::int64_t d, Schedule sched,
                      sim::Cycles pre, sim::Cycles chain, sim::Cycles post) {
  Program p;
  const auto var = p.declare_sync_var("A");
  Block body;
  if (pre > 0) body.nodes.push_back(sim::compute("pre", pre));
  body.nodes.push_back(sim::await(var, {1, -d}));
  body.nodes.push_back(sim::compute("chain", chain));
  body.nodes.push_back(sim::advance(var, {1, 0}));
  if (post > 0) body.nodes.push_back(sim::compute("post", post));
  p.root().nodes.push_back(
      sim::par_loop("doacross", LoopKind::kDoacross, sched, trip,
                    std::move(body)));
  p.finalize();
  return p;
}

Program make_doall(std::int64_t trip, Schedule sched, sim::Cycles cost) {
  Program p;
  Block body;
  body.nodes.push_back(sim::compute("work", cost));
  p.root().nodes.push_back(
      sim::par_loop("doall", LoopKind::kDoall, sched, trip, std::move(body)));
  p.finalize();
  return p;
}

void expect_exact_actual(const Program& program, const MachineConfig& machine,
                         const char* what) {
  const auto actual = sim::simulate_actual(machine, program, "actual");
  const auto pred =
      model::predict_program(program, machine, model::no_probes());
  EXPECT_EQ(pred.total, actual.total_time()) << what;
}

// ---- exactness: every Livermore kernel, every mode and schedule ----------

TEST(ModelExactness, LivermoreActualAllModes) {
  MachineConfig machine;
  for (int k = 1; k <= 24; ++k) {
    for (const std::int64_t n : {std::int64_t{1}, std::int64_t{5},
                                 std::int64_t{97}}) {
      {
        const auto p = loops::make_sequential_ir(k, n);
        expect_exact_actual(p, machine, "sequential");
      }
      {
        const auto p = loops::make_vector_ir(k, n);
        expect_exact_actual(p, machine, "vector");
      }
      for (const Schedule sched :
           {Schedule::kCyclic, Schedule::kBlock, Schedule::kSelf}) {
        const auto p = loops::make_concurrent_ir(k, n, sched);
        expect_exact_actual(p, machine, "concurrent");
      }
    }
  }
}

TEST(ModelExactness, LivermoreMeasuredZeroJitter) {
  MachineConfig machine;
  const std::uint64_t seed = 1991;
  const auto plans = {
      instr::InstrumentationPlan::statements_only({175.0, 0.0}, seed),
      instr::InstrumentationPlan::full({175.0, 0.0}, {90.0, 0.0}, {60.0, 0.0},
                                       seed),
      instr::InstrumentationPlan::sync_only({90.0, 0.0}, seed),
  };
  for (const int k : {1, 3, 4, 17}) {
    for (const auto& plan : plans) {
      const ProbeTable probes = table_of(plan);
      for (const Schedule sched :
           {Schedule::kCyclic, Schedule::kBlock, Schedule::kSelf}) {
        const auto p = loops::make_concurrent_ir(k, 64, sched);
        const auto measured = sim::simulate(machine, p, plan, "measured");
        const auto pred = model::predict_program(p, machine, probes);
        EXPECT_EQ(pred.total, measured.total_time())
            << "loop " << k << " sched " << static_cast<int>(sched);
      }
    }
  }
}

// ---- property: uniform-cost DOALL / DOACROSS are exact -------------------

TEST(ModelExactness, UniformDoallAllSchedules) {
  MachineConfig machine;
  for (const Schedule sched :
       {Schedule::kCyclic, Schedule::kBlock, Schedule::kSelf}) {
    for (const std::int64_t trip : {std::int64_t{1}, std::int64_t{7},
                                    std::int64_t{8}, std::int64_t{64},
                                    std::int64_t{1000}}) {
      const auto p = make_doall(trip, sched, 120);
      expect_exact_actual(p, machine, "uniform doall");
    }
  }
}

TEST(ModelExactness, UniformDoacrossDistancesAndSchedules) {
  MachineConfig machine;
  for (const Schedule sched :
       {Schedule::kCyclic, Schedule::kBlock, Schedule::kSelf}) {
    for (const std::int64_t d : {std::int64_t{1}, std::int64_t{3}}) {
      for (const std::int64_t trip : {std::int64_t{1}, std::int64_t{7},
                                      std::int64_t{8}, std::int64_t{64},
                                      std::int64_t{1000}}) {
        // Both a serialized chain (chain dominates) and a parallel one.
        for (const sim::Cycles chain : {sim::Cycles{400}, sim::Cycles{5}}) {
          const auto p = make_doacross(trip, d, sched, 50, chain, 20);
          expect_exact_actual(p, machine, "uniform doacross");
        }
      }
    }
  }
}

TEST(ModelExactness, DoacrossUnderProbesZeroJitter) {
  MachineConfig machine;
  const auto plan = instr::InstrumentationPlan::full({150.0, 0.0}, {80.0, 0.0},
                                                     {40.0, 0.0}, 7);
  const ProbeTable probes = table_of(plan);
  for (const Schedule sched :
       {Schedule::kCyclic, Schedule::kBlock, Schedule::kSelf}) {
    const auto p = make_doacross(200, 1, sched, 60, 30, 10);
    const auto measured = sim::simulate(machine, p, plan, "measured");
    const auto pred = model::predict_program(p, machine, probes);
    EXPECT_EQ(pred.total, measured.total_time());
  }
}

// ---- steady-state extrapolation ------------------------------------------

TEST(ModelExtrapolation, MatchesUnrolledRecurrenceAndSimulator) {
  MachineConfig machine;
  ModelOptions unrolled;
  unrolled.extrapolate = false;
  for (const std::int64_t d : {std::int64_t{1}, std::int64_t{3}}) {
    for (const std::int64_t trip :
         {std::int64_t{64}, std::int64_t{1001}, std::int64_t{5000}}) {
      for (const sim::Cycles chain : {sim::Cycles{400}, sim::Cycles{5}}) {
        const auto p =
            make_doacross(trip, d, Schedule::kCyclic, 50, chain, 20);
        const auto fast =
            model::predict_program(p, machine, model::no_probes());
        const auto slow =
            model::predict_program(p, machine, model::no_probes(), unrolled);
        EXPECT_EQ(fast.total, slow.total) << "trip " << trip << " d " << d;
        expect_exact_actual(p, machine, "extrapolated doacross");
      }
    }
  }
}

TEST(ModelExtrapolation, LivermoreLongTrips) {
  MachineConfig machine;
  ModelOptions unrolled;
  unrolled.extrapolate = false;
  for (const int k : {3, 4, 17}) {
    const auto p = loops::make_concurrent_ir(k, 4000, Schedule::kCyclic);
    const auto fast = model::predict_program(p, machine, model::no_probes());
    const auto slow =
        model::predict_program(p, machine, model::no_probes(), unrolled);
    EXPECT_EQ(fast.total, slow.total) << "loop " << k;
  }
}

// ---- uncertainty features ------------------------------------------------

TEST(ModelUncertainty, ExactShapesAreConfident) {
  MachineConfig machine;
  const auto doall = make_doall(200, Schedule::kCyclic, 100);
  const auto pa = model::predict_program(doall, machine, model::no_probes());
  EXPECT_DOUBLE_EQ(pa.uncertainty, 0.0);
  EXPECT_TRUE(pa.caveats.empty());

  // A clearly serialized chain sits far from the rho = 1 boundary.
  const auto ser = make_doacross(200, 1, Schedule::kCyclic, 10, 500, 0);
  const auto ps = model::predict_program(ser, machine, model::no_probes());
  EXPECT_LT(ps.uncertainty, 0.25);
}

TEST(ModelUncertainty, MarginalChainRaisesUncertainty) {
  MachineConfig machine;
  // Tune the chain so P * serial ~= per-iteration work (rho near 1).
  // serial = resume 8 + chain + advance 6; per-iter = dispatch 3 + pre +
  // check 4 + chain + advance 6.  With chain = 20, serial = 34; rho = 1 at
  // pre = 8*34 - 33 = 239.
  const auto p = make_doacross(200, 1, Schedule::kCyclic, 239, 20, 0);
  const auto pred = model::predict_program(p, machine, model::no_probes());
  EXPECT_GT(pred.uncertainty, 0.3);
  EXPECT_FALSE(pred.caveats.empty());
}

TEST(ModelUncertainty, ProbeJitterFeedsUncertainty) {
  MachineConfig machine;
  const auto p = make_doall(100, Schedule::kCyclic, 100);
  ModelOptions opt;
  opt.probe_jitter = 0.05;
  const auto pred =
      model::predict_program(p, machine, model::no_probes(), opt);
  EXPECT_NEAR(pred.uncertainty, 0.06, 1e-9);
  ASSERT_EQ(pred.caveats.size(), 1u);
}

TEST(ModelUncertainty, SelfScheduleJitterSensitive) {
  MachineConfig machine;
  const auto p = make_doall(100, Schedule::kSelf, 100);
  ModelOptions opt;
  opt.probe_jitter = 0.05;
  const auto pred =
      model::predict_program(p, machine, model::no_probes(), opt);
  EXPECT_GT(pred.uncertainty, 0.3);
}

TEST(ModelUncertainty, CriticalSectionBoundedNotReplayed) {
  MachineConfig machine;
  Program p;
  const auto lock = p.declare_lock("L");
  Block inner;
  inner.nodes.push_back(sim::compute("update", 80));
  Block body;
  body.nodes.push_back(sim::compute("work", 100));
  body.nodes.push_back(sim::critical(lock, std::move(inner)));
  p.root().nodes.push_back(sim::par_loop("locked", LoopKind::kDoall,
                                         Schedule::kCyclic, 200,
                                         std::move(body)));
  p.finalize();

  const auto actual = sim::simulate_actual(machine, p, "actual");
  const auto pred = model::predict_program(p, machine, model::no_probes());
  EXPECT_GT(pred.uncertainty, 0.3);
  EXPECT_FALSE(pred.caveats.empty());
  // The serialization bound must not undershoot the real contended run by
  // more than the busy-period approximation allows; sanity-band it.
  EXPECT_GT(pred.total, actual.total_time() / 2);
  EXPECT_LT(pred.total, actual.total_time() * 2);
}

TEST(ModelUncertainty, UnsupportedShapeFallsBack) {
  MachineConfig machine;
  Program p;
  const auto var = p.declare_sync_var("A");
  Block body;
  body.nodes.push_back(sim::await(var, {1, -1}));
  body.nodes.push_back(sim::await(var, {1, -2}));  // second await: fallback
  body.nodes.push_back(sim::compute("work", 50));
  body.nodes.push_back(sim::advance(var, {1, 0}));
  p.root().nodes.push_back(sim::par_loop("odd", LoopKind::kDoacross,
                                         Schedule::kCyclic, 50,
                                         std::move(body)));
  p.finalize();
  const auto pred = model::predict_program(p, machine, model::no_probes());
  EXPECT_GE(pred.uncertainty, 0.9);
  EXPECT_FALSE(pred.caveats.empty());
}

// ---- determinism ---------------------------------------------------------

TEST(ModelDeterminism, RepeatedPredictionsBitIdentical) {
  MachineConfig machine;
  const auto plan = instr::InstrumentationPlan::full({175.0, 0.05}, {90.0, 0.05},
                                                     {60.0, 0.05}, 1991);
  const ProbeTable probes = table_of(plan);
  ModelOptions opt;
  opt.probe_jitter = 0.05;
  for (const int k : {3, 17}) {
    const auto p = loops::make_concurrent_ir(k, 500, Schedule::kCyclic);
    const auto a = model::predict_program(p, machine, probes, opt);
    const auto b = model::predict_program(p, machine, probes, opt);
    EXPECT_EQ(a.total, b.total);
    EXPECT_EQ(a.uncertainty, b.uncertainty);
    EXPECT_EQ(a.caveats, b.caveats);
  }
}

// ---- the analytic analyzer vs the liberal re-simulation ------------------

TEST(AnalyticAnalyzer, BitIdenticalToLiberalLoopTime) {
  experiments::Setup setup;
  const auto plan = experiments::make_plan(experiments::PlanKind::kFull, setup);
  const auto overheads = experiments::overheads_for(plan, setup.machine);
  for (const int k : {3, 4, 17}) {
    const auto program = loops::make_concurrent_ir(k, 300, Schedule::kCyclic);
    const auto measured = sim::simulate(setup.machine, program, plan, "m");
    const auto shape =
        core::extract_doacross_shape(measured, overheads, setup.machine);
    for (const Schedule sched :
         {Schedule::kCyclic, Schedule::kBlock, Schedule::kSelf}) {
      core::LiberalOptions options;
      options.machine = setup.machine;
      options.schedule = sched;
      const auto liberal = core::liberal_approximation(shape, options);
      const auto analytic = core::analytic_approximation(shape, options);
      EXPECT_EQ(analytic.loop_time, liberal.loop_time)
          << "loop " << k << " sched " << static_cast<int>(sched);
    }
  }
}

TEST(AnalyticAnalyzer, RegisteredInPipeline) {
  experiments::Setup setup;
  const auto plan = experiments::make_plan(experiments::PlanKind::kFull, setup);
  const auto program = loops::make_concurrent_ir(3, 200, Schedule::kCyclic);
  const auto measured = sim::simulate(setup.machine, program, plan, "m");

  core::PipelineOptions options;
  options.overheads = experiments::overheads_for(plan, setup.machine);
  options.machine = setup.machine;
  core::AnalysisPipeline pipeline(options);
  pipeline.add(core::AnalyzerKind::kLiberal)
      .add(core::AnalyzerKind::kAnalytic);
  const auto result = pipeline.run(measured);
  ASSERT_TRUE(result.acquire.ok);

  const auto* liberal = result.output("liberal");
  const auto* analytic = result.output("analytic");
  ASSERT_NE(liberal, nullptr);
  ASSERT_NE(analytic, nullptr);
  ASSERT_TRUE(liberal->liberal.has_value());
  ASSERT_TRUE(analytic->analytic.has_value());
  EXPECT_EQ(analytic->analytic->loop_time, liberal->liberal->loop_time);
  EXPECT_TRUE(analytic->approx.events().empty());  // produces no trace
}

// ---- grid screening ------------------------------------------------------

experiments::Scenario cell(int loop, experiments::PlanKind plan,
                           std::int64_t n = 200) {
  experiments::Scenario s;
  s.loop = loop;
  s.n = n;
  s.plan = plan;
  return s;
}

std::vector<experiments::Scenario> mixed_grid() {
  using experiments::PlanKind;
  std::vector<experiments::Scenario> cells;
  cells.push_back(cell(1, PlanKind::kStatementsOnly));   // DOALL: confident
  cells.push_back(cell(3, PlanKind::kStatementsOnly));   // confident
  cells.push_back(cell(3, PlanKind::kFull));             // marginal chain
  cells.push_back(cell(17, PlanKind::kStatementsOnly));  // saturated + spread
  cells.push_back(cell(12, PlanKind::kFull));            // DOALL: confident
  experiments::Scenario mutated = cell(1, PlanKind::kFull);
  mutated.mutate_measured = [](trace::Trace&) {};  // opaque to the model
  cells.push_back(mutated);
  return cells;
}

TEST(GridScreening, PartitionMatchesModelUncertainty) {
  const auto cells = mixed_grid();
  const auto screened = experiments::run_grid_screened(cells);
  ASSERT_EQ(screened.cells.size(), cells.size());
  EXPECT_EQ(screened.confident, 3u);
  EXPECT_EQ(screened.fallthrough, 3u);
  EXPECT_TRUE(screened.cells[0].screened);
  EXPECT_TRUE(screened.cells[1].screened);
  EXPECT_FALSE(screened.cells[2].screened);  // lfk3 full: rho near 1
  EXPECT_FALSE(screened.cells[3].screened);  // lfk17: saturated chain
  EXPECT_TRUE(screened.cells[4].screened);
  EXPECT_FALSE(screened.cells[5].screened);  // mutate_measured: forced 1.0
  EXPECT_DOUBLE_EQ(screened.cells[5].prediction.uncertainty, 1.0);
  // Confident cells carry no simulation artifacts, only the prediction.
  EXPECT_TRUE(screened.cells[0].run.actual.events().empty());
  EXPECT_GT(screened.cells[0].prediction.actual.total, 0);
}

TEST(GridScreening, FallthroughBitIdenticalToUnscreened) {
  const auto cells = mixed_grid();
  const auto screened = experiments::run_grid_screened(cells);
  const auto unscreened = experiments::run_grid(cells);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (screened.cells[i].screened) continue;
    const auto& a = screened.cells[i].run;
    const auto& b = unscreened[i];
    EXPECT_EQ(a.actual.events(), b.actual.events()) << "cell " << i;
    EXPECT_EQ(a.measured.events(), b.measured.events()) << "cell " << i;
    EXPECT_EQ(a.time_based.events(), b.time_based.events()) << "cell " << i;
    EXPECT_EQ(a.event_based.approx.events(), b.event_based.approx.events())
        << "cell " << i;
    EXPECT_EQ(a.eb_quality.percent_error, b.eb_quality.percent_error);
    EXPECT_EQ(a.tb_quality.percent_error, b.tb_quality.percent_error);
  }
}

TEST(GridScreening, DeterministicAcrossThreadCounts) {
  const auto cells = mixed_grid();
  experiments::ScreenOptions options;
  options.grid.threads = 1;
  const auto one = experiments::run_grid_screened(cells, options);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    options.grid.threads = threads;
    const auto many = experiments::run_grid_screened(cells, options);
    ASSERT_EQ(many.cells.size(), one.cells.size());
    EXPECT_EQ(many.confident, one.confident);
    EXPECT_EQ(many.fallthrough, one.fallthrough);
    for (std::size_t i = 0; i < one.cells.size(); ++i) {
      EXPECT_EQ(many.cells[i].screened, one.cells[i].screened);
      EXPECT_EQ(many.cells[i].prediction.actual.total,
                one.cells[i].prediction.actual.total);
      EXPECT_EQ(many.cells[i].prediction.measured.total,
                one.cells[i].prediction.measured.total);
      EXPECT_EQ(many.cells[i].prediction.uncertainty,
                one.cells[i].prediction.uncertainty);
      EXPECT_EQ(many.cells[i].run.event_based.approx.events(),
                one.cells[i].run.event_based.approx.events());
    }
  }
}

TEST(GridScreening, ConfidentSweepRunsNoSimulation) {
  using experiments::PlanKind;
  std::vector<experiments::Scenario> cells;
  for (const int loop : {1, 7, 9, 12})
    for (const auto plan : {PlanKind::kStatementsOnly, PlanKind::kFull})
      cells.push_back(cell(loop, plan, 400));
  const auto screened = experiments::run_grid_screened(cells);
  EXPECT_EQ(screened.confident, cells.size());
  EXPECT_EQ(screened.fallthrough, 0u);
  for (const auto& c : screened.cells) {
    EXPECT_TRUE(c.run.actual.events().empty());
    EXPECT_TRUE(c.run.measured.events().empty());
  }
}

TEST(GridScreening, MetricsCountersAndErrorHistogram) {
  support::Metrics::enable(true);
  support::Metrics::reset();
  const auto screened = experiments::run_grid_screened(mixed_grid());
  const auto snap = support::Metrics::snapshot();
  support::Metrics::enable(false);
  ASSERT_TRUE(snap.counters.contains("grid.screen.confident"));
  EXPECT_EQ(snap.counters.at("grid.screen.confident"), screened.confident);
  EXPECT_EQ(snap.counters.at("grid.screen.fallthrough"),
            screened.fallthrough);
  // lfk3-full and lfk17 predict real totals, so both score the model against
  // the event-based reconstruction; the mutated cell has no prediction.
  EXPECT_EQ(snap.histograms.at("grid.model.error").count, 2u);
}

// ---- loop feature extraction ---------------------------------------------

TEST(LoopFeatures, SummarizesStatementShape) {
  const auto f1 = loops::loop_features(1);
  EXPECT_TRUE(f1.parallelizable);
  EXPECT_EQ(f1.distance, 0);
  EXPECT_FALSE(f1.data_dependent);

  const auto f3 = loops::loop_features(3);
  EXPECT_EQ(f3.distance, 1);
  EXPECT_FALSE(f3.guarded_traced);  // compiler-generated guarded update
  EXPECT_GT(f3.pre_cost, 0);
  EXPECT_GT(f3.guarded_cost, 0);

  const auto f17 = loops::loop_features(17);
  EXPECT_EQ(f17.distance, 1);
  EXPECT_TRUE(f17.guarded_traced);  // source-level guarded statements
  EXPECT_TRUE(f17.data_dependent);  // implicit-conditional cost spread
  EXPECT_GT(f17.post_cost, 0);
}

}  // namespace
}  // namespace perturb
