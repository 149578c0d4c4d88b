// Streaming trace analysis suite: the chunk-incremental load → index →
// reconstruct path must be bit-identical to the batch path it shadows.
//
// What must hold:
//   * ChunkReader reads the written trace — on a clean image the chunks
//     concatenate to exactly the trace that was written; on torn or
//     bit-flipped images salvage returns a prefix of it with a coherent
//     SalvageReport; and a feed-mode reader matches a borrowed one on every
//     image at any feed granularity;
//   * IncrementalTraceIndex::seal answers every query like a batch-built
//     TraceIndex, and both match the committed digests of the original
//     reference builder's answers;
//   * the windowed StreamingReconstructor reproduces the batch event-based
//     approximation bit for bit — including when an await's partner advance
//     lands in a later window, when the final chunk is torn, and across the
//     Livermore grid {3,4,17} x {1,2,8} processors under fault injection —
//     matches it on the degenerate advance/await traces, and digests to the
//     committed batch reconstruction of every golden index trace;
//   * AnalysisPipeline::run_stream_file matches run_file's event-based
//     output and publishes the pipeline.stream.* metrics;
//   * run_sealed (the server's prebuilt-index entry) matches run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/critical_path.hpp"
#include "core/eventbased.hpp"
#include "core/pipeline.hpp"
#include "experiments/experiments.hpp"
#include "golden_cases.hpp"
#include "golden_digests.hpp"
#include "support/metrics.hpp"
#include "trace/chunk_reader.hpp"
#include "trace/faults.hpp"
#include "trace/index.hpp"
#include "trace/io.hpp"
#include "trace_digest.hpp"
#include "written_trace_oracle.hpp"

namespace perturb {
namespace {

using core::AnalysisOverheads;
using core::CollectSink;
using core::EventBasedOptions;
using core::StreamingReconstructor;
using trace::ChunkReader;
using trace::Event;
using trace::EventKind;
using trace::image_of;
using trace::Trace;

/// Drains a reader, concatenating every chunk.
std::vector<Event> drain(ChunkReader& reader) {
  std::vector<Event> all;
  std::vector<Event> chunk;
  while (reader.next(chunk) == ChunkReader::Status::kChunk)
    all.insert(all.end(), chunk.begin(), chunk.end());
  return all;
}

/// The shared concurrent workload (loop 17, full instrumentation: advances,
/// awaits, loop markers — everything the index and reconstructor model).
const experiments::LoopRun& loop17() {
  static const experiments::LoopRun run = [] {
    experiments::Setup setup;
    return experiments::run_concurrent_experiment(17, 1000, setup,
                                                  experiments::PlanKind::kFull);
  }();
  return run;
}

AnalysisOverheads overheads() {
  experiments::Setup setup;
  return experiments::overheads_for(
      experiments::make_plan(experiments::PlanKind::kFull, setup),
      setup.machine);
}

// ---- ChunkReader against the written trace ---------------------------------

/// The fault-injected images of loop 17: torn at several points or
/// bit-flipped, some in the header.
std::vector<std::string> faulted_images() {
  const std::string clean = image_of(loop17().measured);
  std::vector<std::string> images;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    std::string bytes = clean;
    if (seed % 3 == 0) {
      bytes = trace::truncate_bytes(bytes, 0.03 * static_cast<double>(seed));
    } else {
      trace::flip_bits(bytes, 1 + seed % 5, seed);
    }
    images.push_back(std::move(bytes));
  }
  return images;
}

TEST(ChunkReader, MatchesWrittenTraceOnCleanImage) {
  const Trace& written = loop17().measured;
  const std::string bytes = image_of(written);
  ChunkReader reader(bytes.data(), bytes.size(), /*salvage=*/false);
  const std::vector<Event> streamed = drain(reader);

  EXPECT_EQ(streamed, written.events());
  EXPECT_EQ(reader.info().name, written.info().name);
  EXPECT_EQ(reader.info().num_procs, written.info().num_procs);
  EXPECT_EQ(reader.events_declared(), written.size());
  EXPECT_EQ(reader.events_read(), written.size());
  EXPECT_TRUE(reader.report().complete);
  EXPECT_TRUE(trace::salvage_matches_written(written, streamed,
                                             reader.report()));
}

/// Outcome of draining one reader: the events, the report, and the
/// exception that stopped it, if any.
struct Drained {
  std::vector<Event> events;
  trace::SalvageReport report;
  std::string error;  ///< exception type and message; empty if none
};

Drained drain_borrowed(const std::string& bytes, bool salvage) {
  Drained d;
  ChunkReader reader(bytes.data(), bytes.size(), salvage);
  try {
    d.events = drain(reader);
  } catch (const trace::MalformedTraceError& e) {
    d.error = std::string("malformed: ") + e.what();
  } catch (const trace::IoError& e) {
    d.error = std::string("io: ") + e.what();
  }
  d.report = reader.report();
  return d;
}

Drained drain_fed(const std::string& bytes, bool salvage, std::size_t piece) {
  Drained d;
  ChunkReader reader(salvage);
  std::vector<Event> chunk;
  try {
    for (std::size_t off = 0; off < bytes.size(); off += piece) {
      reader.feed(bytes.data() + off, std::min(piece, bytes.size() - off));
      while (reader.next(chunk) == ChunkReader::Status::kChunk)
        d.events.insert(d.events.end(), chunk.begin(), chunk.end());
    }
    reader.finish();
    while (reader.next(chunk) == ChunkReader::Status::kChunk)
      d.events.insert(d.events.end(), chunk.begin(), chunk.end());
  } catch (const trace::MalformedTraceError& e) {
    d.error = std::string("malformed: ") + e.what();
  } catch (const trace::IoError& e) {
    d.error = std::string("io: ") + e.what();
  }
  d.report = reader.report();
  return d;
}

TEST(ChunkReader, FeedModeMatchesBorrowedAtAnyGranularity) {
  // Pathological feed sizes: single bytes across the header, then odd
  // primes — chunk boundaries never align with feed calls.  Over the clean
  // image and every fault-injected one, a feed yields exactly what a
  // borrowed reader over the same bytes yields: same events, same report,
  // same exception.  The one documented divergence is strict mode's
  // declared-count guard, which only a borrowed image can apply, so strict
  // reads must agree on whether they fail but not on the message.
  std::vector<std::string> images = faulted_images();
  images.push_back(image_of(loop17().measured));
  for (std::size_t i = 0; i < images.size(); ++i) {
    const std::string& bytes = images[i];
    const Drained borrowed = drain_borrowed(bytes, /*salvage=*/true);
    const Drained strict = drain_borrowed(bytes, /*salvage=*/false);
    for (const std::size_t piece : {std::size_t{1}, std::size_t{7},
                                    std::size_t{4093}}) {
      const Drained fed = drain_fed(bytes, /*salvage=*/true, piece);
      EXPECT_EQ(fed.error, borrowed.error)
          << "image " << i << " piece " << piece;
      EXPECT_EQ(fed.events, borrowed.events)
          << "image " << i << " piece " << piece;
      EXPECT_EQ(fed.report.complete, borrowed.report.complete);
      EXPECT_EQ(fed.report.events_recovered, borrowed.report.events_recovered);
      EXPECT_EQ(fed.report.chunks_total, borrowed.report.chunks_total);
      EXPECT_EQ(fed.report.chunks_recovered, borrowed.report.chunks_recovered);
      EXPECT_EQ(fed.report.detail, borrowed.report.detail)
          << "image " << i << " piece " << piece;

      const Drained fed_strict = drain_fed(bytes, /*salvage=*/false, piece);
      EXPECT_EQ(fed_strict.error.empty(), strict.error.empty())
          << "image " << i << " piece " << piece;
      if (strict.error.empty()) {
        EXPECT_EQ(fed_strict.events, strict.events);
      }
    }
  }
}

TEST(ChunkReader, TornFinalChunkSalvagesPrefix) {
  const Trace& written = loop17().measured;
  const std::string full = image_of(written);
  // Cut mid-way through the last chunk's payload.
  const std::string torn = full.substr(0, full.size() - 100);

  ChunkReader reader(torn.data(), torn.size(), /*salvage=*/true);
  const std::vector<Event> streamed = drain(reader);

  EXPECT_FALSE(reader.report().complete);
  EXPECT_EQ(reader.report().chunks_recovered + 1, reader.report().chunks_total);
  EXPECT_TRUE(trace::salvage_matches_written(written, streamed,
                                             reader.report()));
  EXPECT_EQ(reader.report().detail,
            "chunk " + std::to_string(reader.report().chunks_recovered) +
                ": payload truncated");
}

TEST(ChunkReader, SalvageParityUnderByteFaults) {
  // Every fault-injected image either fails at the header (a flip there
  // breaks the header CRC) or salvages a prefix of the written trace.
  const Trace& written = loop17().measured;
  const std::vector<std::string> images = faulted_images();
  for (std::size_t i = 0; i < images.size(); ++i) {
    const Drained d = drain_borrowed(images[i], /*salvage=*/true);
    if (!d.error.empty()) {
      EXPECT_EQ(d.error.rfind("malformed: ", 0), 0u) << d.error;
      continue;
    }
    EXPECT_TRUE(trace::salvage_matches_written(written, d.events, d.report))
        << "image " << i;
  }
}

TEST(ChunkReader, RejectsUnframedV1) {
  // A v1 header: magic + version 1.  v1 has no chunk frames, so the
  // streaming reader refuses it outright (batch readers still accept it).
  std::string bytes = "PTRC";
  bytes.append(4, '\0');
  bytes[4] = 1;
  ChunkReader reader(bytes.data(), bytes.size(), /*salvage=*/true);
  std::vector<Event> chunk;
  EXPECT_THROW(reader.next(chunk), trace::MalformedTraceError);
}

// ---- IncrementalTraceIndex ------------------------------------------------

/// Compares every query the index answers on the two builds.
void expect_index_equal(const trace::TraceIndex& a, const trace::TraceIndex& b,
                        const Trace& t) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.num_procs(), b.num_procs());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.prev_on_proc(i), b.prev_on_proc(i)) << "event " << i;
    EXPECT_EQ(a.fork_dep(i), b.fork_dep(i)) << "event " << i;
    EXPECT_EQ(a.lock_dep(i), b.lock_dep(i)) << "event " << i;
    EXPECT_EQ(a.sem_ordinal(i), b.sem_ordinal(i)) << "event " << i;
    EXPECT_EQ(a.awaited_advance(i), b.awaited_advance(i)) << "event " << i;
  }
  for (std::size_t p = 0; p < a.num_procs(); ++p) {
    const auto proc = static_cast<trace::ProcId>(p);
    EXPECT_TRUE(std::ranges::equal(a.events_of(proc), b.events_of(proc)))
        << "proc " << p;
  }
  EXPECT_EQ(a.duplicate_advances(), b.duplicate_advances());

  ASSERT_EQ(a.loops().size(), b.loops().size());
  for (std::size_t i = 0; i < a.loops().size(); ++i) {
    EXPECT_EQ(a.loops()[i].begin_index, b.loops()[i].begin_index);
    EXPECT_EQ(a.loops()[i].end_index, b.loops()[i].end_index);
    EXPECT_EQ(a.loops()[i].object, b.loops()[i].object);
    EXPECT_EQ(a.loops()[i].proc, b.loops()[i].proc);
  }
  ASSERT_EQ(a.iterations().size(), b.iterations().size());
  for (std::size_t i = 0; i < a.iterations().size(); ++i) {
    EXPECT_EQ(a.iterations()[i].begin_index, b.iterations()[i].begin_index);
    EXPECT_EQ(a.iterations()[i].end_index, b.iterations()[i].end_index);
    EXPECT_EQ(a.iterations()[i].iteration, b.iterations()[i].iteration);
  }

  // Sync tables, probed through every event's key.
  for (const Event& e : t) {
    const trace::SyncKey key{e.object, e.payload};
    const auto ar = a.advances(key);
    const auto br = b.advances(key);
    EXPECT_EQ(std::vector<std::size_t>(ar.begin(), ar.end()),
              std::vector<std::size_t>(br.begin(), br.end()));
    const auto aw = a.await_begins(key, e.proc);
    const auto bw = b.await_begins(key, e.proc);
    EXPECT_EQ(std::vector<std::size_t>(aw.begin(), aw.end()),
              std::vector<std::size_t>(bw.begin(), bw.end()));
    EXPECT_EQ(a.sem_releases(e.object), b.sem_releases(e.object));
  }

  ASSERT_EQ(a.barrier_episodes().size(), b.barrier_episodes().size());
  for (std::size_t i = 0; i < a.barrier_episodes().size(); ++i) {
    EXPECT_EQ(a.barrier_episodes()[i].key, b.barrier_episodes()[i].key);
    EXPECT_EQ(a.barrier_episodes()[i].arrivals,
              b.barrier_episodes()[i].arrivals);
    EXPECT_EQ(a.barrier_episodes()[i].departs, b.barrier_episodes()[i].departs);
  }
}

/// Seals an incremental index over `t`, appending in uneven slices that
/// cross no particular boundary.
trace::TraceIndex seal_in_slices(const Trace& t) {
  trace::IncrementalTraceIndex builder;
  std::size_t off = 0;
  std::size_t piece = 1;
  while (off < t.size()) {
    const std::size_t n = std::min(piece, t.size() - off);
    builder.append(t.events().data() + off, n);
    off += n;
    piece = piece * 2 + 1;
  }
  EXPECT_EQ(builder.size(), t.size());
  return std::move(builder).seal(t);
}

// Sealed == batch on every trace, and both answer exactly what the original
// map-based reference builder answered: its digest is committed in
// golden_digests.hpp.
TEST(IncrementalTraceIndex, SealMatchesBatchAndReference) {
  const Trace& t = loop17().measured;
  expect_index_equal(seal_in_slices(t), trace::TraceIndex(t), t);

  const auto traces = golden::index_traces();
  ASSERT_EQ(traces.size(), std::size(golden::kIndexDigests));
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const auto& [label, subject] = traces[i];
    SCOPED_TRACE(label);
    ASSERT_EQ(label, golden::kIndexDigests[i].label);
    const trace::TraceIndex batch(subject);
    expect_index_equal(seal_in_slices(subject), batch, subject);
    EXPECT_EQ(trace::index_digest(batch, subject),
              golden::kIndexDigests[i].value);
  }
}

/// A two-processor trace: `pad` statement events, then `middle`, then `pad`
/// more, timed in append order.  The incremental builder sees `middle`
/// arrive inside one of seal_in_slices' uneven slices.
Trace padded_trace(const std::vector<Event>& middle, std::size_t pad) {
  Trace t(trace::TraceInfo{"lazy-tables", 2, 1.0});
  trace::Tick time = 0;
  const auto stmt = [&](std::size_t k) {
    t.append({++time, 0, 1, 0, static_cast<trace::ProcId>(k % 2),
              k % 4 < 2 ? EventKind::kStmtEnter : EventKind::kStmtExit});
  };
  for (std::size_t k = 0; k < pad; ++k) stmt(k);
  for (Event e : middle) {
    e.time = ++time;
    t.append(e);
  }
  for (std::size_t k = 0; k < pad; ++k) stmt(k);
  return t;
}

// The fork, lock, semaphore and awaited-advance tables are allocated on
// their first entry.
// Whether that entry arrives mid-trace (and mid-slice) or never, the sealed
// incremental index answers exactly what the batch index answers.
TEST(IncrementalTraceIndex, LazyTablesMatchBatchWhateverTheirFirstEntry) {
  using K = EventKind;
  const auto ev = [](trace::ProcId proc, EventKind kind, trace::ObjectId obj) {
    return Event{0, 0, 0, obj, proc, kind};
  };
  const auto check = [](const char* label, const std::vector<Event>& middle) {
    SCOPED_TRACE(label);
    const Trace t = padded_trace(middle, 37);
    const trace::TraceIndex batch(t);
    const trace::TraceIndex sealed = seal_in_slices(t);
    expect_index_equal(sealed, batch, t);
    EXPECT_EQ(trace::index_digest(sealed, t), trace::index_digest(batch, t));
  };
  check("first lock hand-off",
        {ev(0, K::kLockAcquire, 5), ev(0, K::kLockRelease, 5),
         ev(1, K::kLockAcquire, 5), ev(1, K::kLockRelease, 5)});
  check("first semaphore acquire",
        {ev(0, K::kSemAcquire, 3), ev(1, K::kSemAcquire, 3),
         ev(0, K::kSemRelease, 3), ev(1, K::kSemRelease, 3)});
  check("first awaited advance",
        {ev(0, K::kAdvance, 2), ev(1, K::kAwaitBegin, 2),
         ev(1, K::kAwaitEnd, 2)});
  check("first loop episode",
        {ev(0, K::kLoopBegin, 1), ev(1, K::kStmtEnter, 0),
         ev(0, K::kStmtEnter, 0), ev(1, K::kStmtExit, 0),
         ev(0, K::kLoopEnd, 1)});
  check("none of them", {});
}

// ---- StreamingReconstructor ----------------------------------------------

/// Batch oracle: the event-based approximation of `measured`.
Trace batch_approx(const Trace& measured) {
  return core::event_based_approximation(measured, overheads()).approx;
}

/// Streams `measured` through a windowed reconstructor in `push_size`-event
/// pushes and returns its result with the collected approximation.
core::EventBasedResult stream_result(const Trace& measured, std::size_t window,
                                     std::size_t push_size) {
  CollectSink sink;
  StreamingReconstructor recon(overheads(), EventBasedOptions{}, window, sink);
  std::size_t off = 0;
  while (off < measured.size()) {
    const std::size_t n = std::min(push_size, measured.size() - off);
    recon.push(measured.events().data() + off, n);
    off += n;
  }
  core::EventBasedResult result = recon.finish();
  result.approx = sink.take(measured.info());
  return result;
}

TEST(StreamingReconstructor, WindowBoundarySplitsAdvanceAwaitPairs) {
  // Tiny windows and single-event pushes force every advance/await pair that
  // spans a drain boundary through the blocked-event path: the await is
  // resident while its partner advance arrives windows later.
  const Trace& measured = loop17().measured;
  const Trace oracle = batch_approx(measured);
  for (const std::size_t window : {std::size_t{4}, std::size_t{64},
                                   std::size_t{1024}}) {
    const Trace streamed = stream_result(measured, window, 1).approx;
    EXPECT_EQ(streamed.events(), oracle.events()) << "window " << window;
    EXPECT_EQ(streamed.info().name, oracle.info().name);
  }
}

TEST(StreamingReconstructor, ReportsWindowAndResidencyStats) {
  const Trace& measured = loop17().measured;
  CollectSink sink;
  StreamingReconstructor recon(overheads(), EventBasedOptions{}, 256, sink);
  recon.push(measured.events().data(), measured.size());
  recon.finish();
  EXPECT_EQ(recon.events_pushed(), measured.size());
  EXPECT_GT(recon.windows_processed(), 0u);
  EXPECT_GT(recon.segments_spilled(), 0u);
  EXPECT_GT(recon.resident_high_water(), 0u);
}

TEST(StreamingReconstructor, MatchesBatchAcrossLivermoreGrid) {
  for (const int loop : {3, 4, 17}) {
    for (const std::uint32_t procs : {1u, 2u, 8u}) {
      experiments::Setup setup;
      setup.machine.num_procs = procs;
      const auto run = experiments::run_concurrent_experiment(
          loop, 300, setup, experiments::PlanKind::kFull);
      const AnalysisOverheads oh = experiments::overheads_for(
          experiments::make_plan(experiments::PlanKind::kFull, setup),
          setup.machine);

      const Trace oracle =
          core::event_based_approximation(run.measured, oh).approx;
      CollectSink sink;
      StreamingReconstructor recon(oh, EventBasedOptions{},
                                   trace::kChunkEvents, sink);
      recon.push(run.measured.events().data(), run.measured.size());
      recon.finish();
      const Trace streamed = sink.take(run.measured.info());
      EXPECT_EQ(streamed.events(), oracle.events())
          << "loop " << loop << " procs " << procs;
    }
  }
}

// The streamed reconstruction of every golden index trace digests to the
// committed batch value, so neither reconstructor is the other's only
// oracle.  Small windows force dependencies across drain boundaries.
TEST(StreamingReconstructor, MatchesCommittedDigests) {
  const auto cases = golden::approx_cases();
  ASSERT_EQ(cases.size(), std::size(golden::kApproxDigests));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const golden::ApproxCase& c = cases[i];
    ASSERT_EQ(c.label, golden::kApproxDigests[i].label);
    for (const std::size_t window : {std::size_t{64}, trace::kChunkEvents}) {
      CollectSink sink;
      StreamingReconstructor recon(c.overheads, c.options, window, sink);
      for (std::size_t off = 0; off < c.measured.size(); off += 97)
        recon.push(c.measured.events().data() + off,
                   std::min<std::size_t>(97, c.measured.size() - off));
      core::EventBasedResult result = recon.finish();
      result.approx = sink.take(c.measured.info());
      const std::uint64_t got = trace::approx_digest(result);
      EXPECT_EQ(got, golden::kApproxDigests[i].value)
          << c.label << " window " << window << ": 0x" << std::hex << got;
    }
  }
}

// Degenerate advance/await pairings — interleaved awaits, duplicate
// advances, an awaitE before its advance, a processor awaiting one key
// twice, advances out of key order, an awaitB ended twice: at every window
// and push size the streamed run re-times every event and classifies every
// wait as batch does.
TEST(StreamingReconstructor, MatchesBatchOnDegenerateTraces) {
  for (const auto& [label, measured] : golden::degenerate_traces()) {
    const core::EventBasedResult batch =
        core::event_based_approximation(measured, overheads());
    for (const std::size_t window : {std::size_t{4}, std::size_t{64},
                                     std::size_t{1024}}) {
      for (const std::size_t push_size : {std::size_t{1}, std::size_t{97}}) {
        SCOPED_TRACE(label + " window " + std::to_string(window) + " push " +
                     std::to_string(push_size));
        const core::EventBasedResult streamed =
            stream_result(measured, window, push_size);
        EXPECT_EQ(streamed.approx.events(), batch.approx.events());
        EXPECT_EQ(streamed.awaits_total, batch.awaits_total);
        EXPECT_EQ(streamed.waits_measured, batch.waits_measured);
        EXPECT_EQ(streamed.waits_approx, batch.waits_approx);
        EXPECT_EQ(streamed.waits_removed, batch.waits_removed);
        EXPECT_EQ(streamed.waits_introduced, batch.waits_introduced);
      }
    }
  }
}

TEST(StreamingReconstructor, CriticalPathMatchesBatchAcrossLivermoreGrid) {
  // PR 7 checked totals-only parity; the critical path exercises the full
  // dependency structure of the reconstruction, so run it on both the
  // streamed and the batch approximations and require bit-identical paths.
  for (const int loop : {3, 4, 17}) {
    for (const std::uint32_t procs : {1u, 2u, 8u}) {
      experiments::Setup setup;
      setup.machine.num_procs = procs;
      const auto run = experiments::run_concurrent_experiment(
          loop, 300, setup, experiments::PlanKind::kFull);
      const AnalysisOverheads oh = experiments::overheads_for(
          experiments::make_plan(experiments::PlanKind::kFull, setup),
          setup.machine);

      const Trace oracle =
          core::event_based_approximation(run.measured, oh).approx;
      CollectSink sink;
      StreamingReconstructor recon(oh, EventBasedOptions{},
                                   trace::kChunkEvents, sink);
      recon.push(run.measured.events().data(), run.measured.size());
      recon.finish();
      const Trace streamed = sink.take(run.measured.info());

      const analysis::CriticalPathStats batch_cp =
          analysis::critical_path(oracle);
      const analysis::CriticalPathStats stream_cp =
          analysis::critical_path(streamed);
      EXPECT_EQ(stream_cp.path, batch_cp.path)
          << "loop " << loop << " procs " << procs;
      EXPECT_EQ(stream_cp.length, batch_cp.length);
      EXPECT_EQ(stream_cp.time_by_kind, batch_cp.time_by_kind);
      EXPECT_EQ(stream_cp.time_by_proc, batch_cp.time_by_proc);
      EXPECT_EQ(stream_cp.cross_processor_links,
                batch_cp.cross_processor_links);
    }
  }
}

TEST(StreamingReconstructor, MatchesBatchOnFaultInjectedTraces) {
  // 30 seeds of byte-level corruption: whatever prefix salvage recovers,
  // streaming and batch reconstruction of that prefix must agree exactly.
  const std::string clean = image_of(loop17().measured);
  const AnalysisOverheads oh = overheads();
  std::size_t compared = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    std::string bytes = clean;
    if (seed % 2 == 0)
      bytes = trace::truncate_bytes(bytes,
                                    0.5 + 0.015 * static_cast<double>(seed));
    else
      trace::flip_bits(bytes, 1, seed * 7919);

    ChunkReader reader(bytes.data(), bytes.size(), /*salvage=*/true);
    Trace salvaged(trace::TraceInfo{});
    CollectSink sink;
    StreamingReconstructor recon(oh, EventBasedOptions{},
                                 trace::kChunkEvents, sink);
    try {
      std::vector<Event> chunk;
      bool have_info = false;
      while (reader.next(chunk) == ChunkReader::Status::kChunk) {
        if (!have_info) {
          salvaged = Trace(reader.info());
          have_info = true;
        }
        for (const Event& e : chunk) salvaged.append(e);
        recon.push(chunk);
      }
      if (!have_info) continue;  // header corrupted away; nothing to compare
    } catch (const CheckError&) {
      continue;  // unsalvageable image; strict/salvage parity covered above
    }
    if (salvaged.size() == 0) continue;
    recon.finish();
    const Trace streamed = sink.take(salvaged.info());
    const Trace oracle = core::event_based_approximation(salvaged, oh).approx;
    EXPECT_EQ(streamed.events(), oracle.events()) << "seed " << seed;
    ++compared;
  }
  // The corruption schedule must leave a healthy number of comparable runs.
  EXPECT_GE(compared, 15u);
}

// ---- pipeline entry points ------------------------------------------------

std::string temp_trace_path() {
  static std::atomic<int> counter{0};
  return "/tmp/perturb_stream_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".bin";
}

core::PipelineOptions pipeline_options() {
  experiments::Setup setup;
  core::PipelineOptions options;
  options.overheads = overheads();
  options.machine = setup.machine;
  options.sync_slack = 130;
  return options;
}

TEST(AnalysisPipeline, StreamFileMatchesBatchEventBased) {
  const std::string path = temp_trace_path();
  trace::save(path, loop17().measured);

  core::AnalysisPipeline pipeline(pipeline_options());
  pipeline.add(core::AnalyzerKind::kEventBased);
  const core::PipelineResult batch = pipeline.run_file(path);
  ASSERT_TRUE(batch.acquire.ok);
  const core::AnalyzerOutput* eb = batch.output("event-based");
  ASSERT_NE(eb, nullptr);

  support::Metrics::enable(true);
  support::Metrics::reset();
  const core::StreamOutcome streamed =
      pipeline.run_stream_file(path, /*collect=*/true);
  ASSERT_TRUE(streamed.ok);
  EXPECT_EQ(streamed.event_stats.approx.events(), eb->approx.events());
  EXPECT_EQ(streamed.measured_events, loop17().measured.size());
  EXPECT_EQ(streamed.measured_span, loop17().measured.span());
  EXPECT_EQ(streamed.measured_total, loop17().measured.total_time());
  EXPECT_EQ(streamed.approx_span, eb->approx.span());
  EXPECT_EQ(streamed.approx_total, eb->approx.total_time());
  EXPECT_EQ(streamed.event_stats.awaits_total,
            eb->event_stats->awaits_total);
  EXPECT_EQ(streamed.event_stats.waits_removed,
            eb->event_stats->waits_removed);
  EXPECT_GT(streamed.chunks, 0u);
  EXPECT_GT(streamed.windows, 0u);

  // The streaming run publishes its observability metrics.
  const support::MetricsSnapshot snap = support::Metrics::snapshot();
  support::Metrics::enable(false);
  EXPECT_EQ(snap.counters.at("pipeline.stream.chunks"), streamed.chunks);
  EXPECT_EQ(snap.counters.at("pipeline.stream.windows"), streamed.windows);
  EXPECT_EQ(snap.counters.at("pipeline.stream.spills"), streamed.spills);
  EXPECT_EQ(
      static_cast<std::size_t>(
          snap.gauges.at("pipeline.stream.resident_events.hwm")),
      streamed.resident_high_water);

  // Summary mode (collect=false) reports the same totals without the trace.
  const core::StreamOutcome summary =
      pipeline.run_stream_file(path, /*collect=*/false);
  ASSERT_TRUE(summary.ok);
  EXPECT_EQ(summary.approx_span, streamed.approx_span);
  EXPECT_EQ(summary.approx_total, streamed.approx_total);
  EXPECT_EQ(summary.event_stats.approx.size(), 0u);

  std::remove(path.c_str());
}

TEST(AnalysisPipeline, StreamFileBoundsResidencyByWindow) {
  const std::string path = temp_trace_path();
  trace::save(path, loop17().measured);
  core::PipelineOptions options = pipeline_options();
  options.stream_window = trace::kChunkEvents;
  const core::AnalysisPipeline pipeline(options);
  const core::StreamOutcome out =
      pipeline.run_stream_file(path, /*collect=*/false);
  ASSERT_TRUE(out.ok);
  ASSERT_GT(loop17().measured.size(), 4 * trace::kChunkEvents)
      << "workload too small to exercise windowing";
  // The drain threshold is soft (blocked events may ride past it), but on a
  // consistent trace residency stays well below the full trace.
  EXPECT_LT(out.resident_high_water, loop17().measured.size() / 2);
  std::remove(path.c_str());
}

TEST(AnalysisPipeline, StreamFileRejectsTextTraces) {
  const std::string path = temp_trace_path() + ".ptt";
  trace::save(path, loop17().measured);
  const core::AnalysisPipeline pipeline(pipeline_options());
  EXPECT_THROW(pipeline.run_stream_file(path, false),
               trace::MalformedTraceError);
  std::remove(path.c_str());
}

TEST(AnalysisPipeline, StreamFileSalvagesTornInputWhenRepairing) {
  const std::string full = image_of(loop17().measured);
  const std::string torn = full.substr(0, full.size() - 100);
  const std::string path = temp_trace_path();
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(torn.data(), 1, torn.size(), f);
    std::fclose(f);
  }

  // Strict mode refuses the torn tail like trace::load.
  const core::AnalysisPipeline strict(pipeline_options());
  EXPECT_THROW(strict.run_stream_file(path, false), trace::IoError);

  // Salvage mode analyzes the valid prefix and says so.
  core::PipelineOptions options = pipeline_options();
  options.repair = core::RepairMode::kConservative;
  const core::AnalysisPipeline salvaging(options);
  const core::StreamOutcome out = salvaging.run_stream_file(path, false);
  ASSERT_TRUE(out.ok);
  EXPECT_TRUE(out.salvaged);
  EXPECT_FALSE(out.salvage.complete);
  EXPECT_LT(out.measured_events, loop17().measured.size());
  std::remove(path.c_str());
}

TEST(AnalysisPipeline, RunSealedMatchesRun) {
  const Trace& measured = loop17().measured;
  core::AnalysisPipeline pipeline(pipeline_options());
  pipeline.add(core::AnalyzerKind::kTimeBased);
  pipeline.add(core::AnalyzerKind::kEventBased);

  const core::PipelineResult batch = pipeline.run(measured);
  ASSERT_TRUE(batch.acquire.ok);

  trace::IncrementalTraceIndex builder;
  builder.append(measured.events().data(), measured.size());
  const core::PipelineResult sealed =
      pipeline.run_sealed(measured, std::move(builder));
  ASSERT_TRUE(sealed.acquire.ok);
  ASSERT_EQ(sealed.outputs.size(), batch.outputs.size());
  for (std::size_t i = 0; i < batch.outputs.size(); ++i) {
    EXPECT_EQ(sealed.outputs[i].analyzer, batch.outputs[i].analyzer);
    EXPECT_EQ(sealed.outputs[i].approx.events(),
              batch.outputs[i].approx.events());
  }
}

}  // namespace
}  // namespace perturb
