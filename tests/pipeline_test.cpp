// Tests for the unified analysis pipeline (core/pipeline.hpp) and the
// shared TraceIndex contract underneath it.
//
// The load-bearing guarantees:
//   * every analyzer run through AnalysisPipeline produces byte-identical
//     traces and quality metrics to calling the analysis directly on the
//     same measured trace (the refactor changed plumbing, not results);
//   * acquisition matches the standalone triage/repair path on
//     fault-injected traces;
//   * the Monte-Carlo explorer is bit-identical at 1, 2, and 8 worker
//     threads;
//   * TraceIndex answers structural queries exactly as a linear scan would.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/eventbased.hpp"
#include "core/liberal.hpp"
#include "core/likely.hpp"
#include "core/pipeline.hpp"
#include "core/timebased.hpp"
#include "support/check.hpp"
#include "experiments/experiments.hpp"
#include "trace/faults.hpp"
#include "trace/index.hpp"
#include "trace/io.hpp"
#include "trace/repair.hpp"
#include "trace/validate.hpp"

namespace perturb::core {
namespace {

// Measured traces carry probe-cost timing noise; this slack covers it (the
// same value the repair and fuzz tests use).
constexpr trace::Tick kSlack = 130;

struct Fixture {
  trace::Trace actual;
  trace::Trace measured;
  AnalysisOverheads ov;
  sim::MachineConfig machine;
};

Fixture make_fixture(int loop, std::int64_t n = 200) {
  experiments::Setup setup;
  const auto run = experiments::run_concurrent_experiment(
      loop, n, setup, experiments::PlanKind::kFull);
  const auto plan =
      experiments::make_plan(experiments::PlanKind::kFull, setup);
  return Fixture{run.actual, run.measured,
                 experiments::overheads_for(plan, setup.machine),
                 setup.machine};
}

bool same_trace(const trace::Trace& a, const trace::Trace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(a[i] == b[i])) return false;
  return true;
}

PipelineOptions options_for(const Fixture& f) {
  PipelineOptions options;
  options.overheads = f.ov;
  options.machine = f.machine;
  options.sync_slack = kSlack;
  options.likely_samples = 16;
  return options;
}

// ---- pipeline == direct analysis, per loop -------------------------------

class PipelineEquivalence : public testing::TestWithParam<int> {};

TEST_P(PipelineEquivalence, MatchesDirectAnalyses) {
  const Fixture f = make_fixture(GetParam());
  AnalysisPipeline pipeline(options_for(f));
  pipeline.add(AnalyzerKind::kTimeBased)
      .add(AnalyzerKind::kEventBased)
      .add(AnalyzerKind::kLiberal);
  const PipelineResult result = pipeline.run(f.measured, &f.actual);
  ASSERT_TRUE(result.acquire.ok) << result.acquire.diagnosis;
  ASSERT_EQ(result.outputs.size(), 3u);

  // Time-based: identical trace and quality to the direct call.
  const trace::Trace tb = time_based_approximation(f.measured, f.ov);
  EXPECT_TRUE(same_trace(result.outputs[0].approx, tb));
  const auto tb_q = assess(f.measured, tb, f.actual);
  ASSERT_TRUE(result.outputs[0].quality.has_value());
  EXPECT_DOUBLE_EQ(result.outputs[0].quality->approx_over_actual,
                   tb_q.approx_over_actual);
  EXPECT_DOUBLE_EQ(result.outputs[0].quality->measured_over_actual,
                   tb_q.measured_over_actual);

  // Event-based: identical trace and wait counters.
  const EventBasedResult eb = event_based_approximation(f.measured, f.ov);
  EXPECT_TRUE(same_trace(result.outputs[1].approx, eb.approx));
  ASSERT_TRUE(result.outputs[1].event_stats.has_value());
  EXPECT_EQ(result.outputs[1].event_stats->awaits_total, eb.awaits_total);
  EXPECT_EQ(result.outputs[1].event_stats->waits_measured, eb.waits_measured);
  EXPECT_EQ(result.outputs[1].event_stats->waits_approx, eb.waits_approx);
  EXPECT_EQ(result.outputs[1].event_stats->waits_removed, eb.waits_removed);
  EXPECT_EQ(result.outputs[1].event_stats->waits_introduced,
            eb.waits_introduced);

  // Liberal: identical replayed trace.
  const DoacrossShape shape =
      extract_doacross_shape(f.measured, f.ov, f.machine);
  LiberalOptions lib;
  lib.machine = f.machine;
  const LiberalResult direct = liberal_approximation(shape, lib);
  EXPECT_TRUE(same_trace(result.outputs[2].approx, direct.approx));
}

INSTANTIATE_TEST_SUITE_P(SeedLoops, PipelineEquivalence,
                         testing::Values(3, 4, 17));

// ---- determinism across worker counts ------------------------------------

TEST(Pipeline, ThreadCountDoesNotChangeResults) {
  const Fixture f = make_fixture(17);
  std::vector<PipelineResult> results;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    PipelineOptions options = options_for(f);
    options.threads = threads;
    AnalysisPipeline pipeline(std::move(options));
    pipeline.add(AnalyzerKind::kTimeBased)
        .add(AnalyzerKind::kEventBased)
        .add(AnalyzerKind::kLikely);
    results.push_back(pipeline.run(f.measured, &f.actual));
    ASSERT_TRUE(results.back().acquire.ok);
  }
  const PipelineResult& a = results[0];
  const PipelineResult& b = results[1];
  EXPECT_TRUE(same_trace(a.outputs[0].approx, b.outputs[0].approx));
  EXPECT_TRUE(same_trace(a.outputs[1].approx, b.outputs[1].approx));
  ASSERT_TRUE(a.outputs[2].distribution.has_value());
  ASSERT_TRUE(b.outputs[2].distribution.has_value());
  EXPECT_EQ(a.outputs[2].distribution->loop_times,
            b.outputs[2].distribution->loop_times);
}

TEST(Pipeline, LikelyExecutionsBitIdenticalAt1And2And8Threads) {
  const Fixture f = make_fixture(17);
  const DoacrossShape shape =
      extract_doacross_shape(f.measured, f.ov, f.machine);
  std::vector<std::vector<trace::Tick>> samples;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    LikelyOptions opt;
    opt.machine = f.machine;
    opt.samples = 64;
    opt.threads = threads;
    samples.push_back(likely_executions(shape, opt).loop_times);
  }
  EXPECT_EQ(samples[0], samples[1]);
  EXPECT_EQ(samples[0], samples[2]);
}

// ---- batched driver: run_many == run_file, at every thread count ---------

TEST(Pipeline, RunManyMatchesRunFileAtOneTwoAndEightThreads) {
  const std::vector<int> loops = {3, 4, 17};
  std::vector<std::string> paths;
  Fixture f = make_fixture(loops[0]);
  for (const int loop : loops) {
    const Fixture item = loop == loops[0] ? f : make_fixture(loop);
    const std::string path =
        "/tmp/perturb_test_run_many_" + std::to_string(loop) + ".bin";
    trace::save(path, item.measured);
    paths.push_back(path);
  }
  // A missing file must come back !ok with a diagnosis, not abort the batch.
  paths.push_back("/tmp/perturb_test_run_many_missing.bin");

  AnalysisPipeline reference(options_for(f));
  reference.add(AnalyzerKind::kTimeBased).add(AnalyzerKind::kEventBased);
  std::vector<PipelineResult> expected;
  for (std::size_t i = 0; i < loops.size(); ++i)
    expected.push_back(reference.run_file(paths[i]));

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    PipelineOptions options = options_for(f);
    options.threads = threads;
    AnalysisPipeline pipeline(std::move(options));
    pipeline.add(AnalyzerKind::kTimeBased).add(AnalyzerKind::kEventBased);
    const std::vector<PipelineResult> results = pipeline.run_many(paths);
    ASSERT_EQ(results.size(), paths.size());
    for (std::size_t i = 0; i < loops.size(); ++i) {
      ASSERT_TRUE(results[i].acquire.ok) << results[i].acquire.diagnosis;
      ASSERT_EQ(results[i].outputs.size(), expected[i].outputs.size());
      for (std::size_t k = 0; k < expected[i].outputs.size(); ++k) {
        EXPECT_TRUE(same_trace(results[i].outputs[k].approx,
                               expected[i].outputs[k].approx))
            << "file " << i << " analyzer " << k << " at " << threads
            << " threads";
      }
      ASSERT_TRUE(results[i].outputs[1].event_stats.has_value());
      ASSERT_TRUE(expected[i].outputs[1].event_stats.has_value());
      EXPECT_EQ(results[i].outputs[1].event_stats->waits_removed,
                expected[i].outputs[1].event_stats->waits_removed);
    }
    EXPECT_FALSE(results.back().acquire.ok);
    EXPECT_FALSE(results.back().acquire.diagnosis.empty());
    EXPECT_TRUE(results.back().outputs.empty());
  }
  for (std::size_t i = 0; i < loops.size(); ++i)
    std::remove(paths[i].c_str());
}

// ---- acquisition: triage, repair, trust ----------------------------------

TEST(Pipeline, RejectsFaultyTraceWithoutRepair) {
  const Fixture f = make_fixture(3);
  const trace::Trace injected =
      trace::inject_violation(f.measured, trace::ViolationKind::kDuplicateAdvance);
  AnalysisPipeline pipeline(options_for(f));
  pipeline.add(AnalyzerKind::kEventBased);
  const PipelineResult result = pipeline.run(injected);
  EXPECT_FALSE(result.acquire.ok);
  EXPECT_FALSE(result.acquire.diagnosis.empty());
  EXPECT_FALSE(result.acquire.violations.empty());
  EXPECT_TRUE(result.outputs.empty());
}

TEST(Pipeline, RepairedAcquisitionMatchesManualRepair) {
  const Fixture f = make_fixture(3);
  trace::Trace injected =
      trace::inject_violation(f.measured, trace::ViolationKind::kLockUnbalanced);
  injected = trace::inject_violation(injected,
                                     trace::ViolationKind::kDuplicateAdvance);

  PipelineOptions options = options_for(f);
  options.repair = RepairMode::kConservative;
  AnalysisPipeline pipeline(std::move(options));
  pipeline.add(AnalyzerKind::kEventBased);
  const PipelineResult result = pipeline.run(injected, &f.actual);
  ASSERT_TRUE(result.acquire.ok) << result.acquire.diagnosis;
  EXPECT_TRUE(result.acquire.repaired);
  EXPECT_FALSE(result.acquire.manifest.actions.empty());

  trace::RepairOptions ropts;
  ropts.sync_slack = kSlack;
  const auto manual = trace::repair(injected, ropts);
  ASSERT_TRUE(same_trace(result.acquire.measured, manual.repaired));
  const EventBasedResult direct =
      event_based_approximation(manual.repaired, f.ov);
  EXPECT_TRUE(same_trace(result.outputs[0].approx, direct.approx));
  // Quality is scored against the repaired measured trace.
  ASSERT_TRUE(result.outputs[0].quality.has_value());
  const auto direct_q = assess(manual.repaired, direct.approx, f.actual);
  EXPECT_DOUBLE_EQ(result.outputs[0].quality->approx_over_actual,
                   direct_q.approx_over_actual);
}

TEST(Pipeline, TrustedAcquireSkipsValidation) {
  const Fixture f = make_fixture(3);
  const trace::Trace injected =
      trace::inject_violation(f.measured, trace::ViolationKind::kDuplicateAdvance);
  const AcquireOutcome outcome = trusted_acquire(injected);
  EXPECT_TRUE(outcome.ok);
  EXPECT_FALSE(outcome.repaired);
  EXPECT_TRUE(same_trace(outcome.measured, injected));
}

TEST(Pipeline, OutputLookupByName) {
  const Fixture f = make_fixture(3);
  AnalysisPipeline pipeline(options_for(f));
  pipeline.add(AnalyzerKind::kTimeBased).add(AnalyzerKind::kEventBased);
  const PipelineResult result = pipeline.run(f.measured);
  ASSERT_TRUE(result.acquire.ok);
  ASSERT_NE(result.output("time-based"), nullptr);
  ASSERT_NE(result.output("event-based"), nullptr);
  EXPECT_EQ(result.output("event-based")->analyzer, "event-based");
  EXPECT_EQ(result.output("liberal"), nullptr);
}

TEST(Pipeline, ReportRendersAllSections) {
  const Fixture f = make_fixture(17);
  const PipelineOptions options = options_for(f);
  AnalysisPipeline pipeline(options);
  pipeline.add(AnalyzerKind::kEventBased);
  const PipelineResult result = pipeline.run(f.measured);
  ASSERT_TRUE(result.acquire.ok);
  const trace::TraceIndex approx(result.outputs[0].approx);
  const std::string report = render_pipeline_report(approx, options);
  EXPECT_NE(report.find("-- waiting --"), std::string::npos);
  EXPECT_NE(report.find("-- parallelism --"), std::string::npos);
  EXPECT_NE(report.find("-- critical path --"), std::string::npos);
}

// ---- TraceIndex invariants ------------------------------------------------

TEST(TraceIndexContract, PerProcessorChainsPartitionTheTrace) {
  const Fixture f = make_fixture(17);
  const trace::TraceIndex idx(f.measured);
  ASSERT_EQ(idx.size(), f.measured.size());

  std::size_t covered = 0;
  for (std::size_t p = 0; p < idx.num_procs(); ++p) {
    const auto& events = idx.events_of(static_cast<trace::ProcId>(p));
    covered += events.size();
    for (std::size_t k = 0; k < events.size(); ++k) {
      EXPECT_EQ(f.measured[events[k]].proc, p);
      EXPECT_EQ(idx.prev_on_proc(events[k]),
                k == 0 ? trace::TraceIndex::npos : events[k - 1]);
      if (k > 0) {
        EXPECT_LT(events[k - 1], events[k]);
      }
    }
  }
  EXPECT_EQ(covered, f.measured.size());
}

// The per-event tables hold 32-bit indices with the all-ones value as npos,
// so both builders refuse a trace of 2^32 - 1 events or more (checked on
// the size alone: no such trace is built).
TEST(TraceIndexContract, RejectsTracesTooLongForThirtyTwoBitTables) {
  using trace::TraceIndex;
  EXPECT_NO_THROW(TraceIndex::require_indexable(0));
  EXPECT_NO_THROW(TraceIndex::require_indexable(TraceIndex::kMaxEvents - 1));
  EXPECT_THROW(TraceIndex::require_indexable(TraceIndex::kMaxEvents),
               CheckError);
  EXPECT_THROW(TraceIndex::require_indexable(TraceIndex::kMaxEvents + 1),
               CheckError);
}

TEST(TraceIndexContract, AdvanceLookupsMatchLinearScan) {
  const Fixture f = make_fixture(17);
  const trace::TraceIndex idx(f.measured);

  std::map<trace::SyncKey, std::vector<std::size_t>> scan;
  for (std::size_t i = 0; i < f.measured.size(); ++i) {
    const auto& e = f.measured[i];
    if (e.kind == trace::EventKind::kAdvance)
      scan[{e.object, e.payload}].push_back(i);
  }
  ASSERT_FALSE(scan.empty());
  for (const auto& [key, occurrences] : scan) {
    EXPECT_EQ(idx.first_advance(key), occurrences.front());
    EXPECT_EQ(idx.last_advance(key), occurrences.back());
    const auto range = idx.advances(key);
    ASSERT_EQ(range.size(), occurrences.size());
    EXPECT_TRUE(std::equal(range.begin(), range.end(), occurrences.begin()));
    // Streaming variant: strictly-before semantics.
    EXPECT_EQ(idx.last_advance_before(key, occurrences.front()),
              trace::TraceIndex::npos);
    EXPECT_EQ(idx.last_advance_before(key, occurrences.back() + 1),
              occurrences.back());
  }
  // A key that never occurs misses cleanly.
  EXPECT_EQ(idx.last_advance({0xDEAD, -42}), trace::TraceIndex::npos);
  EXPECT_EQ(idx.first_advance({0xDEAD, -42}), trace::TraceIndex::npos);
}

TEST(TraceIndexContract, BarrierEpisodesSortedAndInTraceOrder) {
  const Fixture f = make_fixture(17);
  const trace::TraceIndex idx(f.measured);
  const auto& episodes = idx.barrier_episodes();
  ASSERT_FALSE(episodes.empty());
  for (std::size_t k = 1; k < episodes.size(); ++k)
    EXPECT_TRUE(episodes[k - 1].key < episodes[k].key);
  for (const auto& ep : episodes) {
    EXPECT_TRUE(std::is_sorted(ep.arrivals.begin(), ep.arrivals.end()));
    EXPECT_TRUE(std::is_sorted(ep.departs.begin(), ep.departs.end()));
    for (const std::size_t i : ep.arrivals)
      EXPECT_EQ(f.measured[i].kind, trace::EventKind::kBarrierArrive);
    for (const std::size_t i : ep.departs)
      EXPECT_EQ(f.measured[i].kind, trace::EventKind::kBarrierDepart);
    EXPECT_NE(idx.barrier_episode(ep.key.object, ep.key.index), nullptr);
  }
}

TEST(TraceIndexContract, LoopAndIterationSpansAreWellFormed) {
  const Fixture f = make_fixture(17);
  const trace::TraceIndex idx(f.measured);
  ASSERT_EQ(idx.loops().size(), 1u);
  const auto& loop = idx.loops().front();
  EXPECT_EQ(f.measured[loop.begin_index].kind, trace::EventKind::kLoopBegin);
  ASSERT_NE(loop.end_index, trace::TraceIndex::npos);
  EXPECT_EQ(f.measured[loop.end_index].kind, trace::EventKind::kLoopEnd);
  EXPECT_LT(loop.begin_index, loop.end_index);

  ASSERT_FALSE(idx.iterations().empty());
  for (const auto& iter : idx.iterations()) {
    EXPECT_EQ(f.measured[iter.begin_index].kind,
              trace::EventKind::kIterBegin);
    ASSERT_NE(iter.end_index, trace::TraceIndex::npos);
    EXPECT_EQ(f.measured[iter.end_index].kind, trace::EventKind::kIterEnd);
    EXPECT_EQ(f.measured[iter.begin_index].proc,
              f.measured[iter.end_index].proc);
  }
}

}  // namespace
}  // namespace perturb::core
