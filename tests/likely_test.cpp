// Tests for the likely-executions explorer (§4.1 operationalized).
#include <gtest/gtest.h>

#include "core/likely.hpp"
#include "experiments/experiments.hpp"
#include "support/check.hpp"

namespace perturb::core {
namespace {

struct Fixture {
  DoacrossShape shape;
  trace::Tick actual_loop_time = 0;
  sim::MachineConfig machine;
};

Fixture make_fixture(int loop = 17, std::int64_t n = 200) {
  experiments::Setup setup;
  const auto run = experiments::run_concurrent_experiment(
      loop, n, setup, experiments::PlanKind::kFull);
  const auto plan = experiments::make_plan(experiments::PlanKind::kFull, setup);
  const auto ov = experiments::overheads_for(plan, setup.machine);
  Fixture f;
  f.shape = extract_doacross_shape(run.measured, ov, setup.machine);
  f.machine = setup.machine;
  for (const auto& e : run.actual) {
    if (e.kind == trace::EventKind::kLoopBegin) f.actual_loop_time = -e.time;
    if (e.kind == trace::EventKind::kLoopEnd) f.actual_loop_time += e.time;
  }
  return f;
}

TEST(Likely, DistributionIsSortedAndSummarized) {
  const Fixture f = make_fixture();
  LikelyOptions opt;
  opt.machine = f.machine;
  opt.samples = 32;
  const auto dist = likely_executions(f.shape, opt);
  ASSERT_EQ(dist.loop_times.size(), 32u);
  EXPECT_TRUE(std::is_sorted(dist.loop_times.begin(), dist.loop_times.end()));
  EXPECT_LE(dist.min, dist.median);
  EXPECT_LE(dist.median, dist.p95);
  EXPECT_LE(dist.p95, dist.max);
}

TEST(Likely, ZeroUncertaintyCollapsesToAPoint) {
  const Fixture f = make_fixture(3, 100);
  LikelyOptions opt;
  opt.machine = f.machine;
  opt.samples = 8;
  opt.cost_uncertainty = 0.0;
  const auto dist = likely_executions(f.shape, opt);
  EXPECT_EQ(dist.min, dist.max);
}

TEST(Likely, ActualExecutionIsLikely) {
  // The actual run's loop time must fall inside (not at the extreme tails
  // of) the sampled distribution — it IS a likely execution.
  const Fixture f = make_fixture();
  LikelyOptions opt;
  opt.machine = f.machine;
  opt.samples = 64;
  opt.cost_uncertainty = 0.08;
  const auto dist = likely_executions(f.shape, opt);
  const double pct = dist.percentile_of(f.actual_loop_time);
  EXPECT_GT(pct, 0.02);
  EXPECT_LT(pct, 0.98);
}

TEST(Likely, PercentileOfExtremes) {
  const Fixture f = make_fixture(3, 100);
  LikelyOptions opt;
  opt.machine = f.machine;
  opt.samples = 16;
  const auto dist = likely_executions(f.shape, opt);
  EXPECT_DOUBLE_EQ(dist.percentile_of(dist.min - 1), 0.0);
  EXPECT_DOUBLE_EQ(dist.percentile_of(dist.max + 1), 1.0);
}

TEST(Likely, DeterministicInSeed) {
  const Fixture f = make_fixture(3, 100);
  LikelyOptions opt;
  opt.machine = f.machine;
  opt.samples = 8;
  const auto a = likely_executions(f.shape, opt);
  const auto b = likely_executions(f.shape, opt);
  EXPECT_EQ(a.loop_times, b.loop_times);
  opt.seed = 7;
  const auto c = likely_executions(f.shape, opt);
  EXPECT_NE(a.loop_times, c.loop_times);
}

TEST(Likely, RejectsBadOptions) {
  const Fixture f = make_fixture(3, 100);
  LikelyOptions opt;
  opt.machine = f.machine;
  opt.samples = 0;
  EXPECT_THROW(likely_executions(f.shape, opt), CheckError);
  opt.samples = 4;
  opt.cost_uncertainty = 1.5;
  EXPECT_THROW(likely_executions(f.shape, opt), CheckError);
}

}  // namespace
}  // namespace perturb::core
