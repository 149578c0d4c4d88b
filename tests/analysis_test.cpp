// Tests for the analysis library: waiting-time extraction, parallelism
// profiles, and the timeline/plot renderings.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/parallelism.hpp"
#include "analysis/sites.hpp"
#include "analysis/timeline.hpp"
#include "analysis/waiting.hpp"
#include "support/prng.hpp"
#include "trace/index.hpp"

namespace perturb::analysis {
namespace {

using trace::Event;
using trace::EventKind;
using trace::Trace;

Event ev(Tick t, trace::ProcId proc, EventKind k, trace::ObjectId obj = 1,
         std::int64_t payload = 0) {
  Event e;
  e.time = t;
  e.proc = proc;
  e.kind = k;
  e.object = obj;
  e.payload = payload;
  return e;
}

/// Two processors; proc 1 waits 80 ticks in an await, proc 0 never waits.
Trace waiting_trace() {
  Trace t({"t", 2, 1.0});
  t.append(ev(0, 0, EventKind::kProgramBegin, 0));
  t.append(ev(10, 1, EventKind::kAwaitBegin, 1, 5));
  t.append(ev(70, 0, EventKind::kAdvance, 1, 5));
  t.append(ev(90, 1, EventKind::kAwaitEnd, 1, 5));
  t.append(ev(100, 1, EventKind::kAwaitBegin, 1, 6));
  t.append(ev(104, 1, EventKind::kAwaitEnd, 1, 6));  // satisfied: 4 ticks
  t.append(ev(200, 0, EventKind::kProgramEnd, 0));
  return t;
}

TEST(Waiting, ClassifiesAwaitDurations) {
  WaitClassifier c;
  c.await_nowait = 4;
  c.tolerance = 1;
  const auto stats = waiting_analysis(waiting_trace(), c);
  ASSERT_EQ(stats.intervals.size(), 1u);
  EXPECT_EQ(stats.intervals[0].proc, 1);
  EXPECT_EQ(stats.intervals[0].begin, 10);
  EXPECT_EQ(stats.intervals[0].end, 90);
  EXPECT_EQ(stats.waiting_time[0], 0);
  EXPECT_EQ(stats.waiting_time[1], 80);
  EXPECT_DOUBLE_EQ(stats.waiting_percent[1], 40.0);  // 80 of 200
}

TEST(Waiting, LockWaitAttributedFromPreviousEvent) {
  Trace t({"t", 2, 1.0});
  t.append(ev(0, 1, EventKind::kStmtEnter, 0));
  t.append(ev(10, 1, EventKind::kStmtExit, 0));
  t.append(ev(100, 1, EventKind::kLockAcquire, 3));
  t.append(ev(120, 1, EventKind::kLockRelease, 3));
  WaitClassifier c;
  c.lock_acquire = 6;
  const auto stats = waiting_analysis(t, c);
  ASSERT_EQ(stats.intervals.size(), 1u);
  EXPECT_EQ(stats.intervals[0].begin, 10);
  EXPECT_EQ(stats.intervals[0].end, 100);
  EXPECT_EQ(stats.intervals[0].cause, EventKind::kLockAcquire);
}

TEST(Waiting, UncontendedLockNotCounted) {
  Trace t({"t", 1, 1.0});
  t.append(ev(0, 0, EventKind::kStmtExit, 0));
  t.append(ev(6, 0, EventKind::kLockAcquire, 3));
  WaitClassifier c;
  c.lock_acquire = 6;
  EXPECT_TRUE(waiting_analysis(t, c).intervals.empty());
}

TEST(Waiting, BarrierWaitCounted) {
  Trace t({"t", 2, 1.0});
  t.append(ev(10, 0, EventKind::kBarrierArrive, 9));
  t.append(ev(100, 1, EventKind::kBarrierArrive, 9));
  t.append(ev(110, 0, EventKind::kBarrierDepart, 9));
  t.append(ev(110, 1, EventKind::kBarrierDepart, 9));
  WaitClassifier c;
  c.barrier_depart = 10;
  const auto stats = waiting_analysis(t, c);
  // proc0 waited 100 ticks at the barrier; proc1 departed at cost.
  ASSERT_EQ(stats.intervals.size(), 1u);
  EXPECT_EQ(stats.intervals[0].proc, 0);
  EXPECT_EQ(stats.intervals[0].cause, EventKind::kBarrierDepart);
}

// A barrier's object is its loop's node id and sync variables are numbered
// from 1, so an await and a barrier episode can share (object, payload) on
// one processor.  Each begin-marker is consumed on its own: the awaitE
// consuming its awaitB does not consume the earlier barrier arrival.  (With
// one consumption state per (object, payload, processor) for both kinds,
// the departure read the awaitB as its latest consumed begin and dropped
// its 80-tick wait.)
TEST(Waiting, AwaitAndBarrierSharingAKeyAreConsumedSeparately) {
  Trace t({"t", 2, 1.0});
  t.append(ev(10, 0, EventKind::kBarrierArrive, 4, 2));
  t.append(ev(20, 0, EventKind::kAwaitBegin, 4, 2));
  t.append(ev(60, 1, EventKind::kAdvance, 4, 2));
  t.append(ev(70, 0, EventKind::kAwaitEnd, 4, 2));
  t.append(ev(85, 1, EventKind::kBarrierArrive, 4, 2));
  t.append(ev(90, 0, EventKind::kBarrierDepart, 4, 2));
  t.append(ev(90, 1, EventKind::kBarrierDepart, 4, 2));
  WaitClassifier c;
  c.await_nowait = 4;
  c.barrier_depart = 10;
  const auto stats = waiting_analysis(t, c);
  ASSERT_EQ(stats.intervals.size(), 2u);
  EXPECT_EQ(stats.intervals[0].cause, EventKind::kAwaitEnd);
  EXPECT_EQ(stats.intervals[0].begin, 20);
  EXPECT_EQ(stats.intervals[0].end, 70);
  EXPECT_EQ(stats.intervals[1].cause, EventKind::kBarrierDepart);
  EXPECT_EQ(stats.intervals[1].proc, 0);
  EXPECT_EQ(stats.intervals[1].begin, 10);
  EXPECT_EQ(stats.intervals[1].end, 90);
  EXPECT_EQ(stats.waiting_time[0], 50 + 80);
}

TEST(Waiting, RenderedTableShowsPercentages) {
  WaitClassifier c;
  c.await_nowait = 4;
  const auto stats = waiting_analysis(waiting_trace(), c);
  const auto table = render_waiting_table(stats);
  EXPECT_NE(table.find("Processor"), std::string::npos);
  EXPECT_NE(table.find("40.00%"), std::string::npos);
}

TEST(Parallelism, FullyParallelTrace) {
  Trace t({"t", 2, 1.0});
  t.append(ev(0, 0, EventKind::kStmtEnter, 0));
  t.append(ev(0, 1, EventKind::kStmtEnter, 0));
  t.append(ev(100, 0, EventKind::kStmtExit, 0));
  t.append(ev(100, 1, EventKind::kStmtExit, 0));
  const auto profile = parallelism_profile(t, {});
  EXPECT_DOUBLE_EQ(profile.average, 2.0);
  EXPECT_DOUBLE_EQ(profile.average_parallel, 2.0);
}

TEST(Parallelism, SequentialHeadAndTailExcludedFromParallelAverage) {
  Trace t({"t", 2, 1.0});
  // proc0 active [0, 300]; proc1 active only [100, 200].
  t.append(ev(0, 0, EventKind::kStmtEnter, 0));
  t.append(ev(100, 1, EventKind::kStmtEnter, 0));
  t.append(ev(200, 1, EventKind::kStmtExit, 0));
  t.append(ev(300, 0, EventKind::kStmtExit, 0));
  const auto profile = parallelism_profile(t, {});
  EXPECT_NEAR(profile.average, (100 + 200 + 100) / 300.0, 1e-9);
  EXPECT_DOUBLE_EQ(profile.average_parallel, 2.0);
  EXPECT_EQ(profile.span_begin, 0);
  EXPECT_EQ(profile.span_end, 300);
}

TEST(Parallelism, WaitingReducesLevel) {
  Trace t({"t", 2, 1.0});
  t.append(ev(0, 0, EventKind::kStmtEnter, 0));
  t.append(ev(0, 1, EventKind::kStmtEnter, 0));
  // proc1 waits [100, 200] inside an await.
  t.append(ev(100, 1, EventKind::kAwaitBegin, 1, 3));
  t.append(ev(150, 0, EventKind::kAdvance, 1, 3));
  t.append(ev(200, 1, EventKind::kAwaitEnd, 1, 3));
  t.append(ev(400, 0, EventKind::kStmtExit, 0));
  t.append(ev(400, 1, EventKind::kStmtExit, 0));
  WaitClassifier c;
  c.await_nowait = 4;
  const auto profile = parallelism_profile(t, c);
  // 400 ticks at level 2 minus 100 waiting => average 2 - 100/400.
  EXPECT_NEAR(profile.average, 1.75, 1e-9);
}

TEST(Parallelism, EmptyTrace) {
  const auto profile = parallelism_profile(Trace({"t", 2, 1.0}), {});
  EXPECT_EQ(profile.average, 0.0);
  EXPECT_TRUE(profile.steps.empty());
}

TEST(Timeline, RenderingsContainExpectedMarks) {
  WaitClassifier c;
  c.await_nowait = 4;
  const auto t = waiting_trace();
  const auto stats = waiting_analysis(t, c);
  const auto timeline = render_waiting_timeline(t, stats, 40, false);
  EXPECT_NE(timeline.find("Processor 1"), std::string::npos);
  EXPECT_NE(timeline.find('#'), std::string::npos);
  EXPECT_NE(timeline.find("Time (ticks)"), std::string::npos);

  const auto profile = parallelism_profile(t, c);
  const auto plot = render_parallelism_plot(t, profile, 40, 4, false);
  EXPECT_NE(plot.find('*'), std::string::npos);
}

TEST(Timeline, MicrosecondConversionUsesTraceMetadata) {
  Trace t({"t", 1, 10.0});  // 10 ticks per microsecond
  t.append(ev(0, 0, EventKind::kStmtEnter, 0));
  t.append(ev(1000, 0, EventKind::kStmtExit, 0));
  WaitingStats stats;
  stats.waiting_time.assign(1, 0);
  stats.waiting_percent.assign(1, 0.0);
  const auto timeline = render_waiting_timeline(t, stats, 40, true);
  EXPECT_NE(timeline.find("100"), std::string::npos);  // 1000 ticks = 100 us
  EXPECT_NE(timeline.find("Time (microseconds)"), std::string::npos);
}

TEST(Timeline, CsvDumps) {
  WaitClassifier c;
  c.await_nowait = 4;
  const auto t = waiting_trace();
  const auto stats = waiting_analysis(t, c);
  std::ostringstream waiting_csv;
  write_waiting_csv(waiting_csv, stats);
  EXPECT_NE(waiting_csv.str().find("proc,begin,end,cause"), std::string::npos);
  EXPECT_NE(waiting_csv.str().find("1,10,90,awaitE"), std::string::npos);

  std::ostringstream par_csv;
  write_parallelism_csv(par_csv, parallelism_profile(t, c));
  EXPECT_NE(par_csv.str().find("time,level"), std::string::npos);
}

/// A trace mentioning every site kind, with ids spanning the full uint32
/// range (statement ids live in EventId, object ids in ObjectId).
Trace all_kinds_trace() {
  Trace t({"sites", 2, 1.0});
  t.append(ev(0, 0, EventKind::kProgramBegin, 0));
  auto stmt = [&](Tick at, trace::EventId id) {
    Event e = ev(at, 0, EventKind::kStmtEnter, 0);
    e.id = id;
    t.append(e);
    e = ev(at + 1, 0, EventKind::kStmtExit, 0);
    e.id = id;
    t.append(e);
  };
  stmt(1, 1);
  stmt(3, 17);
  stmt(5, 4294967295u);  // UINT32_MAX is a legal statement id
  t.append(ev(10, 0, EventKind::kLoopBegin, 2));
  t.append(ev(11, 1, EventKind::kAwaitBegin, 3, 1));
  t.append(ev(12, 0, EventKind::kAdvance, 3, 1));
  t.append(ev(13, 1, EventKind::kAwaitEnd, 3, 1));
  t.append(ev(14, 0, EventKind::kLockAcquire, 4));
  t.append(ev(15, 0, EventKind::kLockRelease, 4));
  t.append(ev(16, 1, EventKind::kSemAcquire, 5));
  t.append(ev(17, 1, EventKind::kSemRelease, 5));
  t.append(ev(18, 0, EventKind::kBarrierArrive, 6));
  t.append(ev(19, 0, EventKind::kBarrierDepart, 6));
  t.append(ev(20, 0, EventKind::kLoopEnd, 2));
  t.append(ev(30, 0, EventKind::kProgramEnd, 0));
  return t;
}

TEST(SiteRegistry, NameParseRoundTripsEverySite) {
  const auto t = all_kinds_trace();
  const trace::TraceIndex index(t);
  const SiteRegistry sites(index);
  ASSERT_GE(sites.size(), 7u);  // 3 stmts + loop + sync + lock + sem + barrier
  for (SiteId s = 0; s < sites.size(); ++s) {
    const auto parsed = sites.parse(sites.name(s));
    ASSERT_TRUE(parsed.has_value()) << sites.name(s);
    EXPECT_EQ(*parsed, s) << sites.name(s);
  }
}

TEST(SiteRegistry, ParseRejectsOverflowAndNonCanonicalNames) {
  const auto t = all_kinds_trace();
  const SiteRegistry sites{trace::TraceIndex(t)};
  // One past UINT32_MAX: a parse failure, not a wrap onto stmt#0.
  EXPECT_FALSE(sites.parse("stmt#4294967296").has_value());
  EXPECT_FALSE(sites.parse("stmt#18446744073709551617").has_value());
  // UINT32_MAX itself is canonical, and this trace mentions it.
  const auto max_site = sites.parse("stmt#4294967295");
  ASSERT_TRUE(max_site.has_value());
  EXPECT_NE(*max_site, SiteRegistry::npos);
  // Canonical shape, region absent from the trace: npos, not nullopt.
  const auto absent = sites.parse("stmt#999");
  ASSERT_TRUE(absent.has_value());
  EXPECT_EQ(*absent, SiteRegistry::npos);
  for (const char* bad : {"", "stmt", "stmt#", "stmt#-1", "stmt#1x", "#5",
                          "stmt#01e", "mutex#1", "stmt#4 ", " stmt#4"})
    EXPECT_FALSE(sites.parse(bad).has_value()) << '"' << bad << '"';
}

TEST(SiteRegistry, FuzzedNamesNeverCrashAndRoundTripWhenCanonical) {
  const auto t = all_kinds_trace();
  const SiteRegistry sites{trace::TraceIndex(t)};
  support::Xoshiro256 rng(1991);
  const std::string alphabet = "stmlockbarrierym#0123456789 -_";
  for (int i = 0; i < 20000; ++i) {
    std::string name;
    const auto len = rng.below(12);
    for (std::uint64_t c = 0; c < len; ++c)
      name += alphabet[static_cast<std::size_t>(rng.below(alphabet.size()))];
    const auto parsed = sites.parse(name);  // must never throw or wrap
    if (parsed.has_value() && *parsed != SiteRegistry::npos) {
      // Anything that resolves must agree with the canonical name and the
      // structural lookup ("stmt#01" may resolve, but only to stmt#1).
      EXPECT_EQ(sites.parse(sites.name(*parsed)), parsed);
      EXPECT_EQ(sites.find(sites.site(*parsed)), *parsed);
    }
  }
}

}  // namespace
}  // namespace perturb::analysis
