// Randomized program fuzzing: generate seeded random (but structurally
// valid) programs mixing computation, sequential loops, DOACROSS chains,
// critical sections, and semaphore regions; run the full measurement +
// analysis pipeline; and assert the system-wide invariants:
//
//   I1  the simulator terminates and produces a causally valid trace
//   I2  the measured trace is causally valid
//   I3  event-based reconstruction resolves (no false deadlock) and its
//       approximation is causally valid
//   I4  the approximation never takes longer than the measurement
//   I5  with the dependency models enabled, total-time error stays within a
//       generous bound
//
// Plus byte-level fuzzing of the binary trace format:
//
//   I6  random bit flips and truncations of a serialized trace never crash,
//       hang, or over-allocate the reader — every outcome is either the
//       written trace, a salvaged prefix of it, or a CheckError
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/eventbased.hpp"
#include "core/pipeline.hpp"
#include "instr/plan.hpp"
#include "sim/engine.hpp"
#include "support/prng.hpp"
#include "trace/chunk_reader.hpp"
#include "trace/faults.hpp"
#include "trace/io.hpp"
#include "trace/validate.hpp"
#include "written_trace_oracle.hpp"

namespace perturb::sim {
namespace {

using support::Xoshiro256;

/// Builds a random parallel-loop body.  Structure probabilities keep the
/// programs deadlock-free by construction: awaits always target i-d with
/// d >= 1 and an advance always follows in the same body.
struct RandomProgram {
  Program program;
  ObjectId sem = 0;
  std::int64_t sem_capacity = 0;
};

RandomProgram make_random_program(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  RandomProgram out;
  Program& p = out.program;

  auto rand_cost = [&](Cycles lo, Cycles hi) {
    return lo + static_cast<Cycles>(rng.below(
                    static_cast<std::uint64_t>(hi - lo + 1)));
  };

  Block body;
  // Independent prefix: 1-3 statements, possibly a small sequential loop.
  const auto pre_stmts = 1 + rng.below(3);
  for (std::uint64_t s = 0; s < pre_stmts; ++s)
    body.nodes.push_back(compute("pre", rand_cost(5, 300)));
  if (rng.below(2) == 0) {
    Block inner;
    inner.nodes.push_back(compute("inner", rand_cost(5, 40)));
    body.nodes.push_back(seq_loop("seq", 1 + static_cast<std::int64_t>(
                                              rng.below(4)),
                                  std::move(inner)));
  }

  // Optional DOACROSS chain.
  const bool chained = rng.below(3) != 0;
  if (chained) {
    const auto var = p.declare_sync_var("S");
    const auto d = 1 + static_cast<std::int64_t>(rng.below(3));
    body.nodes.push_back(await(var, {1, -d}));
    if (rng.below(2) == 0)
      body.nodes.push_back(compute("guarded stmt", rand_cost(5, 60)));
    else
      body.nodes.push_back(raw_compute("guarded raw", rand_cost(5, 60)));
    body.nodes.push_back(advance(var, {1, 0}));
  }

  // Optional critical section or semaphore region.
  const auto region_kind = rng.below(3);
  if (region_kind == 1) {
    const auto lock = p.declare_lock("L");
    body.nodes.push_back(
        critical(lock, block(compute("cs", rand_cost(5, 80)))));
  } else if (region_kind == 2) {
    out.sem_capacity = 1 + static_cast<std::int64_t>(rng.below(3));
    out.sem = p.declare_semaphore("M", out.sem_capacity);
    body.nodes.push_back(
        semaphore_region(out.sem, block(compute("sem cs", rand_cost(5, 80)))));
  }

  if (rng.below(2) == 0)
    body.nodes.push_back(compute("post", rand_cost(5, 150)));

  const Schedule scheds[] = {Schedule::kCyclic, Schedule::kBlock,
                             Schedule::kSelf};
  // Self-scheduling would reorder a DOACROSS chain's dispatch only; all
  // schedules are safe, so pick freely.
  const auto sched = scheds[rng.below(3)];
  const auto trip = 16 + static_cast<std::int64_t>(rng.below(100));

  p.root().nodes.push_back(compute("head", rand_cost(10, 100)));
  p.root().nodes.push_back(par_loop(
      "fuzz", chained ? LoopKind::kDoacross : LoopKind::kDoall, sched, trip,
      std::move(body)));
  p.root().nodes.push_back(compute("tail", rand_cost(10, 100)));
  p.finalize();
  return out;
}

core::AnalysisOverheads overheads_from(const instr::InstrumentationPlan& plan,
                                       const MachineConfig& cfg) {
  core::AnalysisOverheads ov;
  for (std::uint8_t k = 0; k < trace::kNumEventKinds; ++k)
    ov.probe[k] = plan.mean_cost(static_cast<trace::EventKind>(k));
  ov.s_nowait = cfg.await_check_cost;
  ov.s_wait = cfg.await_resume_cost;
  ov.lock_acquire = cfg.lock_acquire_cost;
  ov.sem_acquire = cfg.sem_acquire_cost;
  ov.barrier_depart = cfg.barrier_depart_cost;
  return ov;
}

class FuzzPipeline : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzPipeline, InvariantsHold) {
  const std::uint64_t seed = GetParam();
  const auto rp = make_random_program(seed);

  MachineConfig cfg;
  cfg.num_procs = 2 + static_cast<std::uint32_t>(seed % 7);

  // I1: actual run valid.
  const auto actual = simulate_actual(cfg, rp.program, "fuzz-actual");
  auto violations = trace::validate(actual);
  ASSERT_TRUE(violations.empty())
      << "seed " << seed << ": " << trace::describe(violations);

  // I2: measured run valid.  Producer-side records (advance, release,
  // arrive) are inflated by their own probes, so ordering checks get one
  // max-probe of slack (see ValidateOptions::sync_slack).
  const auto plan = instr::InstrumentationPlan::full(
      {120.0, 0.05}, {70.0, 0.05}, {40.0, 0.05}, seed);
  const auto measured = simulate(cfg, rp.program, plan, "fuzz-measured");
  trace::ValidateOptions measured_opts;
  measured_opts.sync_slack = 130;  // max probe cost incl. jitter
  violations = trace::validate(measured, measured_opts);
  ASSERT_TRUE(violations.empty())
      << "seed " << seed << ": " << trace::describe(violations);

  // I3: reconstruction resolves and stays feasible.
  core::EventBasedOptions opt;
  if (rp.sem != 0) opt.semaphore_capacity[rp.sem] = rp.sem_capacity;
  const auto result = core::event_based_approximation(
      measured, overheads_from(plan, cfg), opt);
  violations = trace::validate(result.approx);
  EXPECT_TRUE(violations.empty())
      << "seed " << seed << ": " << trace::describe(violations);

  // I4: analysis only removes overhead.
  EXPECT_LE(result.approx.total_time(), measured.total_time())
      << "seed " << seed;

  // I5: bounded recovery error.
  const double ratio = static_cast<double>(result.approx.total_time()) /
                       static_cast<double>(actual.total_time());
  EXPECT_GT(ratio, 0.75) << "seed " << seed;
  EXPECT_LT(ratio, 1.35) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipeline,
                         ::testing::Range<std::uint64_t>(1, 41));

// ---- I6: binary-format byte fuzzing --------------------------------------
//
// The oracle is the trace that was written: a strict read of a mutated
// image returns exactly that trace or throws, and a salvage read returns a
// prefix of it with a report that accounts for the rest.

struct BaseImage {
  trace::Trace written;  ///< the trace serialized into `bytes`
  std::string bytes;     ///< intact v2 serialization
};

const BaseImage& base_image() {
  static const BaseImage image = [] {
    const auto rp = make_random_program(1);
    MachineConfig cfg;
    cfg.num_procs = 4;
    trace::Trace t = simulate_actual(cfg, rp.program, "fuzz-bytes");
    std::string bytes = trace::image_of(t);
    return BaseImage{std::move(t), std::move(bytes)};
  }();
  return image;
}

/// Strict and salvage buffer reads of `bytes` against the written trace.
/// Anything but a match or a CheckError — crash, hang, bad_alloc from a
/// corrupt count — is a bug.
void expect_buffer_reads_match_written(const std::string& bytes,
                                       std::uint64_t seed) {
  const trace::Trace& written = base_image().written;
  try {
    EXPECT_TRUE(trace::equals_written(
        written, trace::read_binary(bytes.data(), bytes.size())))
        << "seed " << seed;
  } catch (const CheckError&) {
    // rejected loudly: fine
  }
  try {
    trace::SalvageReport report;
    const auto t = trace::read_binary_salvage(bytes.data(), bytes.size(),
                                              report);
    EXPECT_TRUE(trace::salvage_matches_written(written, t.events(), report))
        << "seed " << seed;
  } catch (const trace::MalformedTraceError&) {
    // header unsalvageable: reported as an error rather than garbage
  }
}

class FuzzBinaryBytes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzBinaryBytes, MutatedImageSalvagesOrFailsLoudly) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ull + 1);

  std::string bytes = base_image().bytes;
  switch (rng.below(3)) {
    case 0:
      trace::flip_bits(bytes, 1 + rng.below(16), seed);
      break;
    case 1:
      bytes = trace::truncate_bytes(bytes, 0.02 + 0.96 * rng.uniform01());
      break;
    default:  // both: torn file that also rotted on disk
      bytes = trace::truncate_bytes(bytes, 0.3 + 0.6 * rng.uniform01());
      trace::flip_bits(bytes, 1 + rng.below(8), seed);
      break;
  }
  expect_buffer_reads_match_written(bytes, seed);
}

TEST_P(FuzzBinaryBytes, StreamAndBufferReadersAgree) {
  // Both ways in — the batch buffer read and a ChunkReader fed the image as
  // a byte stream — are held to the written trace on every input, clean,
  // bit-flipped or torn.
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(seed * 0xD1B54A32D192ED03ull + 1);

  std::string bytes = base_image().bytes;
  switch (rng.below(4)) {
    case 0:
      trace::flip_bits(bytes, 1 + rng.below(16), seed);
      break;
    case 1:
      bytes = trace::truncate_bytes(bytes, 0.02 + 0.96 * rng.uniform01());
      break;
    case 2:
      bytes = trace::truncate_bytes(bytes, 0.3 + 0.6 * rng.uniform01());
      trace::flip_bits(bytes, 1 + rng.below(8), seed);
      break;
    default:
      break;  // intact image: the clean case must match too
  }
  expect_buffer_reads_match_written(bytes, seed);

  // Salvage through a feed of odd-sized slices.
  trace::ChunkReader reader(/*salvage=*/true);
  std::vector<trace::Event> streamed;
  std::vector<trace::Event> chunk;
  try {
    for (std::size_t off = 0; off < bytes.size(); off += 61) {
      reader.feed(bytes.data() + off,
                  std::min<std::size_t>(61, bytes.size() - off));
      while (reader.next(chunk) == trace::ChunkReader::Status::kChunk)
        streamed.insert(streamed.end(), chunk.begin(), chunk.end());
    }
    reader.finish();
    while (reader.next(chunk) == trace::ChunkReader::Status::kChunk)
      streamed.insert(streamed.end(), chunk.begin(), chunk.end());
    EXPECT_TRUE(trace::salvage_matches_written(base_image().written, streamed,
                                               reader.report()))
        << "seed " << seed;
  } catch (const trace::MalformedTraceError&) {
  }
}

TEST(FuzzBinaryBytes, PureTruncationAlwaysSalvages) {
  // With no bit rot, any cut past the header must salvage cleanly: the
  // recovered prefix grows monotonically with the kept fraction.
  const BaseImage& base = base_image();
  std::size_t prev = 0;
  for (int i = 1; i <= 10; ++i) {
    const std::string torn =
        trace::truncate_bytes(base.bytes, static_cast<double>(i) / 10.0);
    trace::SalvageReport report;
    const auto t = trace::read_binary_salvage(torn.data(), torn.size(), report);
    EXPECT_TRUE(
        trace::salvage_matches_written(base.written, t.events(), report))
        << "cut " << i << "/10";
    EXPECT_GE(t.size(), prev);
    prev = t.size();
  }
  EXPECT_EQ(prev, base.written.size());
}

// ---- degenerate inputs: the header edge cases random mutation rarely hits.
// These are *content* defects, not I/O failures: the file read fine, its
// bytes are unusable.  Both strict and salvage reads must reject with
// MalformedTraceError (the exit-2 class) and exactly this message.

void expect_malformed(const std::string& bytes, const std::string& what,
                      const std::string& message) {
  try {
    trace::read_binary(bytes.data(), bytes.size());
    FAIL() << what << ": strict read accepted degenerate input";
  } catch (const trace::MalformedTraceError& e) {
    EXPECT_EQ(std::string(e.what()), message) << what;
  }
  // Salvage cannot rescue a file with no usable header either; it must
  // reject just as loudly rather than return an empty "recovered" trace.
  try {
    trace::SalvageReport report;
    trace::read_binary_salvage(bytes.data(), bytes.size(), report);
    FAIL() << what << ": salvage accepted degenerate input";
  } catch (const trace::MalformedTraceError& e) {
    EXPECT_EQ(std::string(e.what()), message) << what;
  }
}

TEST(FuzzBinaryBytes, ZeroByteImageIsMalformedNotCrash) {
  expect_malformed(std::string(), "zero-byte", "empty trace file (zero bytes)");
  try {
    trace::read_binary(nullptr, 0);
    FAIL();
  } catch (const trace::MalformedTraceError& e) {
    EXPECT_EQ(std::string(e.what()), "empty trace file (zero bytes)");
  }
}

TEST(FuzzBinaryBytes, TruncationInsideHeaderIsMalformedAtEveryCut) {
  // Cuts before the first event record leave no declared-event prefix to
  // salvage: every one must be a loud MalformedTraceError, never a crash,
  // over-read, or silently empty trace.  (Cuts past the header are the
  // salvageable case covered by PureTruncationAlwaysSalvages.)
  const BaseImage& base = base_image();
  std::size_t header_end = base.bytes.size();
  for (std::size_t cut = 1; cut < base.bytes.size(); ++cut) {
    try {
      trace::SalvageReport report;
      trace::read_binary_salvage(base.bytes.data(), cut, report);
      header_end = cut;  // first cut the salvage reader survives
      break;
    } catch (const trace::MalformedTraceError&) {
    }
  }
  ASSERT_LT(header_end, base.bytes.size());
  for (std::size_t cut = 1; cut < header_end; ++cut)
    expect_malformed(base.bytes.substr(0, cut),
                     "cut at byte " + std::to_string(cut),
                     cut < 4 ? "bad binary trace magic"
                             : "binary trace header truncated");
}

TEST(FuzzBinaryBytes, BadMagicAndBadVersionAreMalformed) {
  std::string wrong_magic = base_image().bytes;
  wrong_magic[0] = static_cast<char>(wrong_magic[0] ^ 0x55);
  expect_malformed(wrong_magic, "bad magic", "bad binary trace magic");

  std::string bad_version = base_image().bytes;
  bad_version[4] = char(0x7F);  // version byte follows the 4-byte magic
  expect_malformed(bad_version, "unsupported version",
                   "unsupported binary trace version 127");
}

TEST(FuzzBinaryBytes, EmptyTraceFailsPipelineStructurally) {
  // A syntactically valid image declaring zero events parses, but analysis
  // must fail acquisition with a diagnosis instead of emitting NaNs.
  std::ostringstream out(std::ios::binary);
  trace::write_binary(out, trace::Trace{});
  const std::string image = out.str();
  const trace::Trace empty =
      trace::read_binary(image.data(), image.size());
  EXPECT_EQ(empty.size(), 0u);

  core::PipelineOptions options;
  core::AnalysisPipeline pipeline(std::move(options));
  pipeline.add(core::AnalyzerKind::kTimeBased);
  const auto acquired = pipeline.acquire(trace::Trace{empty});
  EXPECT_FALSE(acquired.ok);
  EXPECT_NE(acquired.diagnosis.find("no events"), std::string::npos)
      << acquired.diagnosis;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzBinaryBytes,
                         ::testing::Range<std::uint64_t>(1, 121));

}  // namespace
}  // namespace perturb::sim
