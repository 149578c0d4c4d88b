// Unit tests for the self-observability metrics registry: handle interning,
// log2 bucketing, merge determinism across thread shards, snapshot/JSON
// stability, the disabled-path cost contract (no allocation, no shard
// creation), and phase coverage: the pipeline's stage timers account for a
// whole run_file.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include <unistd.h>

#include "core/pipeline.hpp"
#include "experiments/experiments.hpp"
#include "loops/programs.hpp"
#include "sim/engine.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "trace/io.hpp"

// ---- allocation counting ------------------------------------------------
//
// Replacing the global allocator lets DisabledModeAllocatesNothing assert
// the registry's cost model directly.  Counting is gated on a flag so the
// rest of the binary (gtest internals included) pays one relaxed load.

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_calls{0};

void* counted_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perturb::support {
namespace {

/// Every test starts from a clean, enabled registry and leaves it disabled
/// (the process-wide default) so tests compose in any order.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Metrics::enable(true);
    Metrics::reset();
  }
  void TearDown() override {
    Metrics::reset();
    Metrics::enable(false);
  }
};

TEST_F(MetricsTest, CounterAccumulatesAndInternsByName) {
  const Counter a("test.counter.a");
  const Counter a_again("test.counter.a");
  a.add();
  a.add(41);
  a_again.add(100);
  const auto snap = Metrics::snapshot();
  ASSERT_TRUE(snap.counters.contains("test.counter.a"));
  EXPECT_EQ(snap.counters.at("test.counter.a"), 142u);
}

TEST_F(MetricsTest, GaugeMergesByMaxAndUnsetReadsZero) {
  const Gauge peak("test.gauge.peak");
  const Gauge untouched("test.gauge.untouched");
  peak.record_max(7);
  peak.record_max(300);
  peak.record_max(12);
  peak.record_max(-5);
  const auto snap = Metrics::snapshot();
  EXPECT_EQ(snap.gauges.at("test.gauge.peak"), 300);
  EXPECT_EQ(snap.gauges.at("test.gauge.untouched"), 0);
}

TEST_F(MetricsTest, HistogramBucketBoundaries) {
  const HistogramMetric h("test.hist.buckets");
  h.observe(0);  // zero shares bucket 0 with one
  h.observe(1);
  h.observe(2);
  h.observe(3);
  h.observe(4);
  h.observe(std::uint64_t{1} << 40);
  const auto snap = Metrics::snapshot();
  const HistogramSnapshot& hs = snap.histograms.at("test.hist.buckets");
  EXPECT_EQ(hs.count, 6u);
  EXPECT_EQ(hs.sum, 10u + (std::uint64_t{1} << 40));
  EXPECT_EQ(hs.min, 0u);
  EXPECT_EQ(hs.max, std::uint64_t{1} << 40);
  EXPECT_EQ(hs.buckets[0], 2u);  // 0, 1
  EXPECT_EQ(hs.buckets[1], 2u);  // 2, 3
  EXPECT_EQ(hs.buckets[2], 1u);  // 4
  EXPECT_EQ(hs.buckets[40], 1u);
  std::uint64_t total = 0;
  for (const auto b : hs.buckets) total += b;
  EXPECT_EQ(total, hs.count);
}

TEST_F(MetricsTest, EmptyNameAndJsonHostileNamesRejected) {
  EXPECT_THROW(Counter(""), CheckError);
  EXPECT_THROW(Counter("bad\"quote"), CheckError);
  EXPECT_THROW(Gauge("bad\nnewline"), CheckError);
  EXPECT_THROW(HistogramMetric("bad\\slash"), CheckError);
}

// The core determinism contract: the same multiset of recorded values must
// snapshot bit-identically no matter how the work was sharded over threads.
TEST_F(MetricsTest, MergeIsDeterministicAcrossShardCounts) {
  const auto run_sharded = [](std::size_t threads) -> std::string {
    Metrics::reset();
    const Counter ticks("test.merge.ticks");
    const Counter bytes("test.merge.bytes");
    const Gauge peak("test.merge.peak");
    const HistogramMetric spans("test.merge.spans");
    TaskPool pool(threads);
    pool.parallel_for(1000, [&](std::size_t i) {
      ticks.add();
      bytes.add(i);
      peak.record_max(static_cast<std::int64_t>(i % 613));
      spans.observe(i % 97 + 1);
    });
    return Metrics::snapshot().to_json();
  };

  const std::string one = run_sharded(1);
  const std::string two = run_sharded(2);
  const std::string eight = run_sharded(8);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  EXPECT_NE(one.find("\"test.merge.ticks\": 1000"), std::string::npos);
  // sum over [0, 1000) = 499500
  EXPECT_NE(one.find("\"test.merge.bytes\": 499500"), std::string::npos);
  EXPECT_NE(one.find("\"test.merge.peak\": 612"), std::string::npos);
}

TEST_F(MetricsTest, SnapshotJsonIsStableAcrossIdenticalRuns) {
  const Counter c("test.stable.c");
  const HistogramMetric h("test.stable.h");
  c.add(3);
  h.observe(17);
  const std::string first = Metrics::snapshot().to_json();
  const std::string again = Metrics::snapshot().to_json();
  EXPECT_EQ(first, again);
  // Same values after a reset produce the same bytes: the key set comes from
  // registrations, the numbers from the recorded multiset.
  Metrics::reset();
  c.add(3);
  h.observe(17);
  EXPECT_EQ(Metrics::snapshot().to_json(), first);
}

TEST_F(MetricsTest, ResetZeroesValuesButKeepsRegistrations) {
  const Counter c("test.reset.c");
  c.add(9);
  Metrics::reset();
  const auto snap = Metrics::snapshot();
  ASSERT_TRUE(snap.counters.contains("test.reset.c"));
  EXPECT_EQ(snap.counters.at("test.reset.c"), 0u);
}

TEST_F(MetricsTest, PhaseTimerRecordsOneSpanWhenEnabled) {
  const HistogramMetric span("test.timer.span");
  {
    const PhaseTimer timer(span);
  }
  const auto snap = Metrics::snapshot();
  EXPECT_EQ(snap.histograms.at("test.timer.span").count, 1u);
}

TEST_F(MetricsTest, PhaseTimerArmedAtConstructionNotDestruction) {
  const HistogramMetric span("test.timer.late");
  Metrics::enable(false);
  {
    const PhaseTimer timer(span);
    Metrics::enable(true);  // too late: the timer was built disarmed
  }
  EXPECT_EQ(Metrics::snapshot().histograms.at("test.timer.late").count, 0u);
}

// The stage timers must account for (almost) the entire pipeline run:
// uninstrumented gaps would make the snapshot lie about where time goes.
// Summed pipeline.phase.* nanoseconds over one run_file of a Livermore-3
// trace must cover 0.90..1.05 of that run's wall time.
TEST_F(MetricsTest, PipelinePhasesCoverRunFileWallTime) {
  const experiments::Setup setup;
  const auto plan = experiments::make_plan(experiments::PlanKind::kFull, setup);
  const std::string path = ::testing::TempDir() + "metrics_coverage_" +
                           std::to_string(::getpid()) + ".bin";
  trace::save(path, sim::simulate(setup.machine,
                                  loops::make_concurrent_ir(3, 4000), plan,
                                  "metrics_coverage"));
  core::PipelineOptions options;
  options.overheads = experiments::overheads_for(plan, setup.machine);
  options.machine = setup.machine;
  core::AnalysisPipeline pipeline(options);
  pipeline.add(core::AnalyzerKind::kEventBased);

  // The first run interns the lazily registered handles; time the second.
  ASSERT_TRUE(pipeline.run_file(path).acquire.ok);
  Metrics::reset();
  const auto start = std::chrono::steady_clock::now();
  const auto result = pipeline.run_file(path);
  const double wall_ns = std::chrono::duration<double, std::nano>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  std::remove(path.c_str());
  ASSERT_TRUE(result.acquire.ok);

  std::uint64_t phase_ns = 0;
  for (const auto& [name, h] : Metrics::snapshot().histograms)
    if (name.rfind("pipeline.phase.", 0) == 0) phase_ns += h.sum;
  const double coverage = static_cast<double>(phase_ns) / wall_ns;
  EXPECT_GE(coverage, 0.90);
  EXPECT_LE(coverage, 1.05);
}

// The disabled path's cost contract: record operations allocate nothing and
// never create a shard.  (Handle *construction* may allocate — interning —
// which is why the handles are built before counting starts.)
TEST(MetricsDisabled, RecordPathAllocatesNothing) {
  Metrics::enable(false);
  const Counter c("test.disabled.c");
  const Gauge g("test.disabled.g");
  const HistogramMetric h("test.disabled.h");
  const std::size_t shards_before = Metrics::shard_count();

  g_alloc_calls.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    c.add(7);
    g.record_max(i);
    h.observe(static_cast<std::uint64_t>(i));
    const PhaseTimer timer(h);
  }
  g_count_allocs.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_alloc_calls.load(std::memory_order_relaxed), 0u);
  EXPECT_EQ(Metrics::shard_count(), shards_before);
}

}  // namespace
}  // namespace perturb::support
