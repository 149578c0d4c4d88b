// Tests for experiments::run_grid: bit-identical results at any thread
// count, with memoization on or off, against the serial per-scenario
// drivers — including under repair modes, fault injection, and file-based
// measured traces — plus golden quality scores on two real cells.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "experiments/grid.hpp"
#include "loops/programs.hpp"
#include "trace/faults.hpp"
#include "trace/io.hpp"
#include "trace/trace_stats.hpp"

namespace perturb::experiments {
namespace {

using trace::Event;
using trace::Trace;

bool same_event(const Event& x, const Event& y) {
  return x.time == y.time && x.payload == y.payload && x.id == y.id &&
         x.object == y.object && x.proc == y.proc && x.kind == y.kind;
}

void expect_traces_identical(const Trace& a, const Trace& b,
                             const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_TRUE(same_event(a.events()[i], b.events()[i]))
        << label << " event " << i;
}

void expect_quality_identical(const core::ApproximationQuality& a,
                              const core::ApproximationQuality& b,
                              const std::string& label) {
  EXPECT_EQ(a.measured_over_actual, b.measured_over_actual) << label;
  EXPECT_EQ(a.approx_over_actual, b.approx_over_actual) << label;
  EXPECT_EQ(a.percent_error, b.percent_error) << label;
  EXPECT_EQ(a.mean_abs_event_error, b.mean_abs_event_error) << label;
  EXPECT_EQ(a.rms_event_error, b.rms_event_error) << label;
  EXPECT_EQ(a.p50_event_error, b.p50_event_error) << label;
  EXPECT_EQ(a.p95_event_error, b.p95_event_error) << label;
  EXPECT_EQ(a.matched_events, b.matched_events) << label;
  EXPECT_EQ(a.degraded_input, b.degraded_input) << label;
}

void expect_runs_identical(const LoopRun& a, const LoopRun& b,
                           const std::string& label) {
  expect_traces_identical(a.actual, b.actual, label + "/actual");
  expect_traces_identical(a.measured, b.measured, label + "/measured");
  expect_traces_identical(a.time_based, b.time_based, label + "/tb");
  expect_traces_identical(a.event_based.approx, b.event_based.approx,
                          label + "/eb");
  expect_quality_identical(a.tb_quality, b.tb_quality, label + "/tbq");
  expect_quality_identical(a.eb_quality, b.eb_quality, label + "/ebq");
}

Scenario concurrent(int loop, std::int64_t n, PlanKind plan,
                    std::uint32_t procs = 8) {
  Scenario s;
  s.loop = loop;
  s.n = n;
  s.mode = ExecMode::kConcurrent;
  s.setup.machine.num_procs = procs;
  s.plan = plan;
  return s;
}

/// A mixed grid: shared actuals (same loop under different plans), distinct
/// machines, all three execution modes.
std::vector<Scenario> mixed_grid() {
  std::vector<Scenario> grid;
  grid.push_back(concurrent(3, 120, PlanKind::kFull));
  grid.push_back(concurrent(3, 120, PlanKind::kStatementsOnly));
  grid.push_back(concurrent(3, 120, PlanKind::kSyncOnly));
  grid.push_back(concurrent(17, 100, PlanKind::kFull));
  grid.push_back(concurrent(17, 100, PlanKind::kFull, 4));
  Scenario seq;
  seq.loop = 7;
  seq.n = 150;
  seq.mode = ExecMode::kSequential;
  grid.push_back(seq);
  Scenario vec;
  vec.loop = 12;
  vec.n = 150;
  vec.mode = ExecMode::kVector;
  grid.push_back(vec);
  Scenario self_sched = concurrent(4, 120, PlanKind::kFull);
  self_sched.schedule = sim::Schedule::kSelf;
  grid.push_back(self_sched);
  return grid;
}

TEST(Grid, MatchesSerialScenarioLoop) {
  const auto grid = mixed_grid();
  const auto runs = run_grid(grid, {.threads = 1, .memoize_actual = true});
  ASSERT_EQ(runs.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i)
    expect_runs_identical(runs[i], run_scenario(grid[i]),
                          "cell " + std::to_string(i));
}

TEST(Grid, MatchesSerialExperimentDrivers) {
  const Scenario s = concurrent(17, 100, PlanKind::kFull);
  const auto grid_run = run_grid({s}, {})[0];
  experiments::Setup setup;
  setup.machine.num_procs = 8;
  const auto serial_run =
      run_concurrent_experiment(17, 100, setup, PlanKind::kFull);
  expect_runs_identical(grid_run, serial_run, "vs run_concurrent_experiment");
}

TEST(Grid, ThreadCountInvariant) {
  const auto grid = mixed_grid();
  const auto at1 = run_grid(grid, {.threads = 1, .memoize_actual = true});
  const auto at2 = run_grid(grid, {.threads = 2, .memoize_actual = true});
  const auto at8 = run_grid(grid, {.threads = 8, .memoize_actual = true});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    expect_runs_identical(at1[i], at2[i], "1v2 cell " + std::to_string(i));
    expect_runs_identical(at1[i], at8[i], "1v8 cell " + std::to_string(i));
  }
}

TEST(Grid, MemoizationInvariant) {
  const auto grid = mixed_grid();
  const auto memo = run_grid(grid, {.threads = 2, .memoize_actual = true});
  const auto no_memo = run_grid(grid, {.threads = 2, .memoize_actual = false});
  for (std::size_t i = 0; i < grid.size(); ++i)
    expect_runs_identical(memo[i], no_memo[i], "cell " + std::to_string(i));
}

TEST(Grid, RepairModesWithFaultInjection) {
  std::vector<Scenario> grid;
  for (const auto repair :
       {core::RepairMode::kConservative, core::RepairMode::kAggressive}) {
    Scenario skewed = concurrent(3, 120, PlanKind::kFull);
    skewed.repair = repair;
    skewed.mutate_measured = [](Trace& t) {
      t = trace::skew_timestamps(t, 40, 0.3, 11);
    };
    grid.push_back(skewed);
    Scenario dropped = concurrent(17, 100, PlanKind::kFull);
    dropped.repair = repair;
    dropped.mutate_measured = [](Trace& t) {
      t = trace::drop_events(t, trace::EventKind::kAdvance, 3, 5);
    };
    grid.push_back(dropped);
  }
  const auto at1 = run_grid(grid, {.threads = 1, .memoize_actual = true});
  const auto at8 = run_grid(grid, {.threads = 8, .memoize_actual = true});
  ASSERT_EQ(at1.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    expect_runs_identical(at1[i], run_scenario(grid[i]),
                          "serial cell " + std::to_string(i));
    expect_runs_identical(at1[i], at8[i], "1v8 cell " + std::to_string(i));
  }
}

TEST(Grid, MeasuredFromFileMatchesSimulated) {
  const Scenario simulated = concurrent(3, 120, PlanKind::kFull);
  // Capture the exact measured trace the simulating scenario would produce,
  // write it to disk, and feed it back through the file path.
  const auto plan = make_plan(simulated.plan, simulated.setup);
  const auto program = loops::make_concurrent_ir(simulated.loop, simulated.n);
  const auto measured = sim::simulate(simulated.setup.machine, program, plan,
                                      scenario_name(simulated) + "/measured");
  const std::string path =
      testing::TempDir() + "grid_test_measured.perturb";
  trace::save(path, measured);

  Scenario from_file = simulated;
  from_file.measured_path = path;
  const auto runs = run_grid({simulated, from_file}, {.threads = 2});
  expect_runs_identical(runs[0], runs[1], "file vs simulated");
}

/// A TraceComparison pinned bit for bit (doubles as hex-float literals).
struct GoldenComparison {
  const char* label;  ///< "<cell>/<trace compared against actual>"
  std::size_t matched, unmatched_a, unmatched_b;
  double mean, rms, p50, p95;
  trace::Tick max;
  double total_time_ratio;
};

/// compare(x, actual) on two real cells, for x = the measured trace and the
/// time- and event-based approximations.  Generated at commit 31dbc30, where
/// compare() and the original map-based comparator agreed bit for bit on
/// every row.
constexpr GoldenComparison kGoldenComparisons[] = {
    {"lfk3/measured", 858, 0, 0,
     0x1.71bb995c7e821p+12, 0x1.a52092a659372p+12,
     0x1.71b8p+12, 0x1.54bcccccccccdp+13,
     11684, 0x1.6d66ab1453c92p+2},
    {"lfk3/time-based", 858, 0, 0,
     0x1.a0982af70c881p+7, 0x1.08c61e49ff5aep+8,
     0x1.51p+7, 0x1.fap+8,
     588, 0x1.2fe0a1caf69c4p+0},
    {"lfk3/event-based", 858, 0, 0,
     0x1.a2a5e48cd4703p+3, 0x1.fcf33b4eefd99p+3,
     0x1.8p+3, 0x1.dp+4,
     40, 0x1.01229113b54b7p+0},
    {"lfk17/measured", 1402, 0, 516,
     0x1.8a7c7ce55747fp+15, 0x1.cbc5811c2ffdcp+15,
     0x1.89b3p+15, 0x1.7c7f733333333p+16,
     105684, 0x1.3930fa5118f7cp+3},
    {"lfk17/time-based", 1402, 0, 516,
     0x1.11fca10cc8202p+15, 0x1.40eaa412a8261p+15,
     0x1.141ap+15, 0x1.09a0ccccccccdp+16,
     73838, 0x1.c8e5b6651b18bp+2},
    {"lfk17/event-based", 1402, 0, 516,
     0x1.11fca10cc8202p+15, 0x1.40eaa412a8261p+15,
     0x1.141ap+15, 0x1.09a0ccccccccdp+16,
     73838, 0x1.c8e5b6651b18bp+2},
};

void expect_comparison(const trace::TraceComparison& c,
                       const GoldenComparison& g) {
  EXPECT_EQ(c.matched_events, g.matched) << g.label;
  EXPECT_EQ(c.unmatched_a, g.unmatched_a) << g.label;
  EXPECT_EQ(c.unmatched_b, g.unmatched_b) << g.label;
  EXPECT_EQ(c.mean_abs_time_error, g.mean) << g.label;
  EXPECT_EQ(c.rms_time_error, g.rms) << g.label;
  EXPECT_EQ(c.p50_abs_time_error, g.p50) << g.label;
  EXPECT_EQ(c.p95_abs_time_error, g.p95) << g.label;
  EXPECT_EQ(c.max_abs_time_error, g.max) << g.label;
  EXPECT_EQ(c.total_time_ratio, g.total_time_ratio) << g.label;
}

/// The grid's quality scores are compare(approx, actual): assess() on real
/// traces must reproduce the pinned comparisons exactly.
void expect_quality_matches(const core::ApproximationQuality& q,
                            const GoldenComparison& g) {
  EXPECT_EQ(q.matched_events, g.matched) << g.label;
  EXPECT_EQ(q.mean_abs_event_error, g.mean) << g.label;
  EXPECT_EQ(q.rms_event_error, g.rms) << g.label;
  EXPECT_EQ(q.p50_event_error, g.p50) << g.label;
  EXPECT_EQ(q.p95_event_error, g.p95) << g.label;
}

TEST(Grid, QualityMatchesGoldenComparisons) {
  const std::vector<Scenario> grid = {
      concurrent(3, 120, PlanKind::kFull),
      concurrent(17, 100, PlanKind::kStatementsOnly)};
  const auto runs = run_grid(grid, {.threads = 2, .memoize_actual = true});
  ASSERT_EQ(runs.size(), 2u);
  for (std::size_t cell = 0; cell < runs.size(); ++cell) {
    const LoopRun& run = runs[cell];
    const GoldenComparison* g = &kGoldenComparisons[3 * cell];
    expect_comparison(trace::compare(run.measured, run.actual), g[0]);
    expect_comparison(trace::compare(run.time_based, run.actual), g[1]);
    expect_comparison(trace::compare(run.event_based.approx, run.actual),
                      g[2]);
    expect_quality_matches(run.tb_quality, g[1]);
    expect_quality_matches(run.eb_quality, g[2]);
  }
}

TEST(Grid, EmptyGrid) {
  EXPECT_TRUE(run_grid({}, {.threads = 4}).empty());
}

}  // namespace
}  // namespace perturb::experiments
