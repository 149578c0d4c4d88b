// Unit tests for the trace library: event model, container operations,
// merging, serialization round-trips, and trace comparison.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>

#include "support/check.hpp"
#include "trace/event.hpp"
#include "trace/io.hpp"
#include "trace/trace.hpp"
#include "trace/trace_stats.hpp"
#include "written_trace_oracle.hpp"

namespace perturb::trace {
namespace {

Event make_event(Tick time, ProcId proc, EventKind kind, EventId id = 1,
                 ObjectId object = 0, std::int64_t payload = 0) {
  Event e;
  e.time = time;
  e.proc = proc;
  e.kind = kind;
  e.id = id;
  e.object = object;
  e.payload = payload;
  return e;
}

// ---- event ------------------------------------------------------------

TEST(Event, KindNamesRoundTrip) {
  for (std::uint8_t k = 0; k < kNumEventKinds; ++k) {
    const auto kind = static_cast<EventKind>(k);
    EXPECT_EQ(event_kind_from_name(event_kind_name(kind)), kind);
  }
}

TEST(Event, UnknownKindNameThrows) {
  EXPECT_THROW(event_kind_from_name("bogus"), CheckError);
}

TEST(Event, SyncKindClassification) {
  EXPECT_TRUE(is_sync_kind(EventKind::kAdvance));
  EXPECT_TRUE(is_sync_kind(EventKind::kAwaitBegin));
  EXPECT_TRUE(is_sync_kind(EventKind::kAwaitEnd));
  EXPECT_TRUE(is_sync_kind(EventKind::kLockAcquire));
  EXPECT_TRUE(is_sync_kind(EventKind::kBarrierDepart));
  EXPECT_FALSE(is_sync_kind(EventKind::kStmtEnter));
  EXPECT_FALSE(is_sync_kind(EventKind::kIterBegin));
  EXPECT_FALSE(is_sync_kind(EventKind::kProgramEnd));
}

TEST(Event, SyncKeyOrderingAndHash) {
  const SyncKey a{1, 5};
  const SyncKey b{1, 6};
  const SyncKey c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (SyncKey{1, 5}));
  SyncKeyHash h;
  EXPECT_EQ(h(a), h(SyncKey{1, 5}));
  EXPECT_NE(h(a), h(b));
}

// ---- trace container ---------------------------------------------------

TEST(Trace, AppendAndAccess) {
  Trace t({"test", 2, 1.0});
  EXPECT_TRUE(t.empty());
  t.append(make_event(10, 0, EventKind::kStmtEnter));
  t.append(make_event(20, 1, EventKind::kStmtExit));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].time, 10);
  EXPECT_EQ(t[1].proc, 1);
}

TEST(Trace, SortCanonicalIsStableOnTies) {
  Trace t({"test", 2, 1.0});
  t.append(make_event(10, 0, EventKind::kAdvance, 1));
  t.append(make_event(10, 1, EventKind::kAwaitEnd, 2));
  t.append(make_event(5, 0, EventKind::kStmtEnter, 3));
  t.sort_canonical();
  EXPECT_EQ(t[0].id, 3u);
  EXPECT_EQ(t[1].id, 1u);  // tie preserved in append order
  EXPECT_EQ(t[2].id, 2u);
  EXPECT_TRUE(t.is_time_ordered());
}

TEST(Trace, SpanAndTotalTime) {
  Trace t({"test", 1, 1.0});
  t.append(make_event(100, 0, EventKind::kProgramBegin));
  t.append(make_event(150, 0, EventKind::kStmtEnter));
  t.append(make_event(400, 0, EventKind::kProgramEnd));
  EXPECT_EQ(t.start_time(), 100);
  EXPECT_EQ(t.end_time(), 400);
  EXPECT_EQ(t.span(), 300);
  EXPECT_EQ(t.total_time(), 300);
}

TEST(Trace, TotalTimeFallsBackToSpan) {
  Trace t({"test", 1, 1.0});
  t.append(make_event(100, 0, EventKind::kStmtEnter));
  t.append(make_event(250, 0, EventKind::kStmtExit));
  EXPECT_EQ(t.total_time(), 150);
}

TEST(Trace, EmptyTraceTimesAreZero) {
  Trace t;
  EXPECT_EQ(t.start_time(), 0);
  EXPECT_EQ(t.end_time(), 0);
  EXPECT_EQ(t.total_time(), 0);
}

TEST(Trace, ByProcessorSplits) {
  Trace t({"test", 3, 1.0});
  t.append(make_event(1, 0, EventKind::kStmtEnter));
  t.append(make_event(2, 2, EventKind::kStmtEnter));
  t.append(make_event(3, 0, EventKind::kStmtExit));
  const auto parts = t.by_processor();
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(parts[1], (std::vector<std::size_t>{}));
  EXPECT_EQ(parts[2], (std::vector<std::size_t>{1}));
  EXPECT_EQ(t[parts[0][1]].kind, EventKind::kStmtExit);
}

TEST(Trace, ByProcessorRejectsOutOfRange) {
  Trace t({"test", 1, 1.0});
  t.append(make_event(1, 5, EventKind::kStmtEnter));
  EXPECT_THROW(t.by_processor(), CheckError);
}

TEST(Trace, ProcessorEventIndices) {
  Trace t({"test", 2, 1.0});
  t.append(make_event(1, 0, EventKind::kStmtEnter));
  t.append(make_event(2, 1, EventKind::kStmtEnter));
  t.append(make_event(3, 0, EventKind::kStmtExit));
  const auto idx = t.processor_events(0);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 0u);
  EXPECT_EQ(idx[1], 2u);
}

TEST(Trace, MergeInterleavesByTime) {
  Trace a({"a", 1, 1.0});
  a.append(make_event(1, 0, EventKind::kStmtEnter));
  a.append(make_event(5, 0, EventKind::kStmtExit));
  Trace b({"b", 1, 1.0});
  b.append(make_event(3, 1, EventKind::kStmtEnter));
  const auto merged = Trace::merge({"m", 2, 1.0}, {a, b});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].time, 1);
  EXPECT_EQ(merged[1].time, 3);
  EXPECT_EQ(merged[2].time, 5);
  EXPECT_TRUE(merged.is_time_ordered());
}

TEST(Trace, MergeBreaksTiesByPartIndex) {
  Trace a({"a", 1, 1.0});
  a.append(make_event(7, 0, EventKind::kStmtEnter, 1));
  Trace b({"b", 1, 1.0});
  b.append(make_event(7, 1, EventKind::kStmtEnter, 2));
  const auto merged = Trace::merge({"m", 2, 1.0}, {a, b});
  EXPECT_EQ(merged[0].id, 1u);
  EXPECT_EQ(merged[1].id, 2u);
}

TEST(Trace, MergeRejectsUnsortedInput) {
  Trace a({"a", 1, 1.0});
  a.append(make_event(5, 0, EventKind::kStmtEnter));
  a.append(make_event(1, 0, EventKind::kStmtExit));
  EXPECT_THROW(Trace::merge({"m", 1, 1.0}, {a}), CheckError);
}

// ---- io ----------------------------------------------------------------

Trace sample_trace() {
  Trace t({"sample run", 2, 5.9});
  t.append(make_event(0, 0, EventKind::kProgramBegin));
  t.append(make_event(10, 0, EventKind::kStmtEnter, 3, 0, 7));
  t.append(make_event(15, 1, EventKind::kAdvance, 4, 2, 123456789));
  t.append(make_event(20, 1, EventKind::kAwaitEnd, 5, 2, -1));
  t.append(make_event(99, 0, EventKind::kProgramEnd));
  return t;
}

TEST(TraceIo, TextRoundTrip) {
  const Trace t = sample_trace();
  std::stringstream ss;
  write_text(ss, t);
  const Trace back = read_text(ss);
  EXPECT_EQ(back.info().name, t.info().name);
  EXPECT_EQ(back.info().num_procs, t.info().num_procs);
  EXPECT_DOUBLE_EQ(back.info().ticks_per_us, t.info().ticks_per_us);
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(back[i], t[i]);
}

TEST(TraceIo, BinaryRoundTrip) {
  const Trace t = sample_trace();
  const std::string bytes = image_of(t);
  EXPECT_TRUE(equals_written(t, read_binary(bytes.data(), bytes.size())));
}

TEST(TraceIo, TextRejectsBadHeader) {
  std::stringstream ss("not a trace\n");
  EXPECT_THROW(read_text(ss), CheckError);
}

TEST(TraceIo, TextRejectsMalformedLine) {
  std::stringstream ss("#perturb-trace v1\n#procs 1\n1 2 3\n");
  EXPECT_THROW(read_text(ss), CheckError);
}

TEST(TraceIo, TextIgnoresUnknownDirectives) {
  std::stringstream ss(
      "#perturb-trace v1\n#procs 1\n#future stuff\n5 stmt_enter 0 1 0 0\n");
  const Trace t = read_text(ss);
  EXPECT_EQ(t.size(), 1u);
}

TEST(TraceIo, BinaryRejectsBadMagic) {
  // A content defect (exit-2 class), named exactly.
  const std::string bytes = "XXXXgarbage";
  try {
    read_binary(bytes.data(), bytes.size());
    FAIL() << "bad magic accepted";
  } catch (const MalformedTraceError& e) {
    EXPECT_EQ(std::string(e.what()), "bad binary trace magic");
  }
}

TEST(TraceIo, BinaryRejectsTruncation) {
  // Cut past a valid header: a body defect, so an IoError in strict mode
  // rather than a malformed trace.
  std::string bytes = image_of(sample_trace());
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(read_binary(bytes.data(), bytes.size()), IoError);
}

TEST(TraceIo, BufferReaderMatchesWrittenTrace) {
  // Multi-chunk trace (crosses the 1024-event chunk boundary, ends in a
  // partial chunk): the read returns exactly the header fields and events
  // that were written.
  Trace t({"multi-chunk", 3, 2.5});
  for (int i = 0; i < 3000; ++i)
    t.append(make_event(i, static_cast<ProcId>(i % 3), EventKind::kStmtEnter,
                        static_cast<EventId>(i), static_cast<ObjectId>(i % 7),
                        i * 11));
  const std::string bytes = image_of(t);
  EXPECT_TRUE(equals_written(t, read_binary(bytes.data(), bytes.size())));
}

TEST(TraceIo, BufferReaderRejectsBadMagic) {
  const std::string bytes = "XXXXgarbage";
  EXPECT_THROW(read_binary(bytes.data(), bytes.size()), CheckError);
}

TEST(TraceIo, BufferReaderRejectsTruncation) {
  std::string bytes = image_of(sample_trace());
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(read_binary(bytes.data(), bytes.size()), CheckError);
}

TEST(TraceIo, BufferReaderRejectsCorruptChunk) {
  const Trace t = sample_trace();
  std::string bytes = image_of(t);
  bytes[bytes.size() - 10] ^= 0x40;  // rot inside the last chunk's payload
  EXPECT_THROW(read_binary(bytes.data(), bytes.size()), CheckError);
  // Salvage accepts the same image and reports the loss instead.
  SalvageReport report;
  const Trace salvaged =
      read_binary_salvage(bytes.data(), bytes.size(), report);
  EXPECT_FALSE(report.complete);
  EXPECT_TRUE(salvage_matches_written(t, salvaged.events(), report));
}

TEST(TraceIo, ArenaLoadMatchesPlainLoad) {
  Trace t({"arena", 2, 1.0});
  for (int i = 0; i < 2500; ++i)
    t.append(make_event(i, static_cast<ProcId>(i % 2), EventKind::kStmtExit,
                        static_cast<EventId>(i)));
  const std::string path = "/tmp/perturb_test_arena.bin";
  save(path, t);
  IoArena arena;
  const Trace first = load(path, arena);
  const Trace second = load(path, arena);  // reused buffer, same result
  const Trace plain = load(path);
  ASSERT_EQ(first.size(), t.size());
  ASSERT_EQ(second.size(), t.size());
  ASSERT_EQ(plain.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(first[i], t[i]);
    EXPECT_EQ(second[i], t[i]);
    EXPECT_EQ(plain[i], t[i]);
  }
  std::remove(path.c_str());
}

TEST(Trace, SortCanonicalFastPathKeepsTimeOrderedTraceIntact) {
  // Already time-ordered input takes the is_time_ordered() early return;
  // ties must keep append order exactly as the full stable sort would.
  Trace t({"ordered", 2, 1.0});
  t.append(make_event(5, 0, EventKind::kStmtEnter, 1));
  t.append(make_event(10, 0, EventKind::kAdvance, 2));
  t.append(make_event(10, 1, EventKind::kAwaitEnd, 3));
  t.append(make_event(12, 1, EventKind::kStmtExit, 4));
  t.sort_canonical();
  EXPECT_EQ(t[0].id, 1u);
  EXPECT_EQ(t[1].id, 2u);
  EXPECT_EQ(t[2].id, 3u);
  EXPECT_EQ(t[3].id, 4u);
  EXPECT_TRUE(t.is_time_ordered());
}

TEST(TraceIo, SaveToUnwritablePathThrows) {
  EXPECT_THROW(save("/nonexistent-dir/x.ptt", sample_trace()), CheckError);
  EXPECT_THROW(load("/nonexistent-dir/x.ptt"), CheckError);
}

TEST(TraceIo, SemaphoreEventsRoundTrip) {
  Trace t({"sems", 1, 1.0});
  t.append(make_event(5, 0, EventKind::kSemAcquire, 9, 4, 2));
  t.append(make_event(9, 0, EventKind::kSemRelease, 9, 4, 2));
  std::stringstream ss;
  write_text(ss, t);
  const Trace back = read_text(ss);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0], t[0]);
  EXPECT_EQ(back[1], t[1]);
}

TEST(TraceIo, FileSaveLoadByExtension) {
  const Trace t = sample_trace();
  const std::string text_path = "/tmp/perturb_test_trace.ptt";
  const std::string bin_path = "/tmp/perturb_test_trace.bin";
  save(text_path, t);
  save(bin_path, t);
  EXPECT_EQ(load(text_path).size(), t.size());
  EXPECT_EQ(load(bin_path).size(), t.size());
}

// ---- stats / compare ----------------------------------------------------

TEST(TraceStats, CountsKindsAndProcs) {
  const auto s = compute_stats(sample_trace());
  EXPECT_EQ(s.total_events, 5u);
  EXPECT_EQ(s.kind_counts[static_cast<std::size_t>(EventKind::kAdvance)], 1u);
  EXPECT_EQ(s.per_proc_events[0], 3u);
  EXPECT_EQ(s.per_proc_events[1], 2u);
  EXPECT_EQ(s.total_time, 99);
  const auto rendered = render_stats(s);
  EXPECT_NE(rendered.find("advance"), std::string::npos);
}

TEST(TraceCompare, IdenticalTracesHaveZeroError) {
  const Trace t = sample_trace();
  const auto c = compare(t, t);
  EXPECT_EQ(c.matched_events, t.size());
  EXPECT_EQ(c.unmatched_a, 0u);
  EXPECT_EQ(c.unmatched_b, 0u);
  EXPECT_DOUBLE_EQ(c.mean_abs_time_error, 0.0);
  EXPECT_DOUBLE_EQ(c.total_time_ratio, 1.0);
}

TEST(TraceCompare, TimeShiftMeasured) {
  const Trace t = sample_trace();
  Trace shifted = t;
  for (auto& e : shifted.events()) e.time += 5;
  const auto c = compare(shifted, t);
  EXPECT_EQ(c.matched_events, t.size());
  EXPECT_DOUBLE_EQ(c.mean_abs_time_error, 5.0);
  EXPECT_EQ(c.max_abs_time_error, 5);
}

TEST(TraceCompare, RepeatedEventsMatchByOrdinal) {
  Trace a({"a", 1, 1.0});
  Trace b({"b", 1, 1.0});
  // The same statement executes twice; occurrences pair up in order.
  a.append(make_event(10, 0, EventKind::kStmtEnter, 1));
  a.append(make_event(20, 0, EventKind::kStmtEnter, 1));
  b.append(make_event(11, 0, EventKind::kStmtEnter, 1));
  b.append(make_event(23, 0, EventKind::kStmtEnter, 1));
  const auto c = compare(a, b);
  EXPECT_EQ(c.matched_events, 2u);
  EXPECT_DOUBLE_EQ(c.mean_abs_time_error, 2.0);
}

TEST(TraceCompare, UnmatchedEventsCounted) {
  Trace a({"a", 1, 1.0});
  Trace b({"b", 1, 1.0});
  a.append(make_event(1, 0, EventKind::kStmtEnter, 1));
  a.append(make_event(2, 0, EventKind::kStmtEnter, 2));
  b.append(make_event(1, 0, EventKind::kStmtEnter, 1));
  b.append(make_event(2, 0, EventKind::kStmtEnter, 3));
  const auto c = compare(a, b);
  EXPECT_EQ(c.matched_events, 1u);
  EXPECT_EQ(c.unmatched_a, 1u);
  EXPECT_EQ(c.unmatched_b, 1u);
}

// Regression for the comparator's packed MatchKey: boundary-valued
// ids/objects/procs/payloads must neither alias each other nor collide with
// the table's empty-slot sentinel.  Every expected value below is worked out
// by hand from the event pairs, so any packing bug shows up as a mismatch.
TEST(TraceCompare, PackedKeyBoundariesMatchHandComputedValues) {
  constexpr EventId kMaxId = std::numeric_limits<EventId>::max();
  constexpr ObjectId kMaxObject = std::numeric_limits<ObjectId>::max();
  constexpr ProcId kMaxProc = std::numeric_limits<ProcId>::max();
  constexpr std::int64_t kMinPayload = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMaxPayload = std::numeric_limits<std::int64_t>::max();

  Trace a({"a", std::uint32_t{kMaxProc} + 1, 1.0});
  Trace b({"b", std::uint32_t{kMaxProc} + 1, 1.0});
  const auto both = [&](Tick ta, Tick tb, ProcId proc, EventKind kind,
                        EventId id, ObjectId object, std::int64_t payload) {
    a.append(make_event(ta, proc, kind, id, object, payload));
    b.append(make_event(tb, proc, kind, id, object, payload));
  };

  // All fields simultaneously at their maxima (proc_kind = 0xffffff).
  both(10, 13, kMaxProc, EventKind::kSemRelease, kMaxId, kMaxObject,
       kMaxPayload);
  // Extreme payloads with otherwise-identical identity must stay distinct.
  both(20, 20, 0, EventKind::kStmtEnter, 1, 0, kMinPayload);
  both(30, 36, 0, EventKind::kStmtEnter, 1, 0, kMaxPayload);
  // (id, object) pairs that would alias under a mis-shifted 32-bit pack.
  both(40, 41, 1, EventKind::kAdvance, 1, 2, 7);
  both(50, 53, 1, EventKind::kAdvance, 2, 1, 7);
  both(60, 60, 1, EventKind::kAdvance, 0, kMaxObject, 7);
  both(70, 79, 1, EventKind::kAdvance, 1, 0, 7);
  // (proc, kind) pairs that would alias under a mis-shifted 8-bit pack.
  both(80, 82, 1, EventKind::kStmtEnter, 5, 0, 0);
  both(90, 95, 0, EventKind::kStmtExit, 5, 0, 0);
  // Unmatched on both sides, with boundary identities.
  a.append(make_event(100, kMaxProc, EventKind::kUser, kMaxId, 0, -1));
  b.append(make_event(100, kMaxProc, EventKind::kUser, kMaxId, 1, -1));
  // Repeats of a boundary key: occurrence ordinals pair in order.
  both(110, 111, kMaxProc, EventKind::kSemRelease, kMaxId, kMaxObject,
       kMaxPayload);

  // Matched |errors|, pair by pair: 3 0 6 1 3 0 9 2 5 1.  Sorted:
  // 0 0 1 1 2 3 3 5 6 9, so the median interpolates 2 and 3, and p95 sits
  // at rank 8.55: 6 + 0.55 * (9 - 6).
  const TraceComparison c = compare(a, b);
  EXPECT_EQ(c.matched_events, 10u);
  EXPECT_EQ(c.unmatched_a, 1u);
  EXPECT_EQ(c.unmatched_b, 1u);
  EXPECT_EQ(c.max_abs_time_error, 9);
  EXPECT_EQ(c.mean_abs_time_error, 30.0 / 10.0);
  EXPECT_DOUBLE_EQ(c.rms_time_error, std::sqrt(166.0 / 10.0));
  EXPECT_EQ(c.p50_abs_time_error, 2.5);
  EXPECT_DOUBLE_EQ(c.p95_abs_time_error, 7.65);
  // Spans: a runs 10..110, b runs 13..111.
  EXPECT_DOUBLE_EQ(c.total_time_ratio, 100.0 / 98.0);
}

}  // namespace
}  // namespace perturb::trace
