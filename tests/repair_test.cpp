// Tests for the trace triage & repair pipeline (trace/repair.hpp) and the
// checksummed v2 binary format's salvage path (trace/io.hpp,
// trace/chunk_reader.hpp).
//
// The core contract, exercised per ViolationKind: inject a minimal instance
// of the violation with the fault library, confirm the validator flags it,
// repair, confirm the validator is clean afterwards, and confirm the
// event-based analysis completes on the repaired trace.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/eventbased.hpp"
#include "experiments/experiments.hpp"
#include "support/check.hpp"
#include "support/crc32.hpp"
#include "trace/chunk_reader.hpp"
#include "trace/faults.hpp"
#include "trace/io.hpp"
#include "trace/repair.hpp"
#include "trace/validate.hpp"
#include "written_trace_oracle.hpp"

namespace perturb::trace {
namespace {

using core::event_based_approximation;

// Measured traces carry probe-cost timing noise; this slack covers it (the
// same value the fuzz tests use).
constexpr Tick kSlack = 130;

struct Fixture {
  Trace measured;
  core::AnalysisOverheads ov;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    experiments::Setup setup;
    setup.machine.num_procs = 4;
    const auto run = experiments::run_concurrent_experiment(
        3, 200, setup, experiments::PlanKind::kFull);
    const auto plan =
        experiments::make_plan(experiments::PlanKind::kFull, setup);
    return Fixture{run.measured,
                   experiments::overheads_for(plan, setup.machine)};
  }();
  return f;
}

bool has_kind(const std::vector<Violation>& violations, ViolationKind kind) {
  for (const auto& v : violations)
    if (v.kind == kind) return true;
  return false;
}

// ---- per-ViolationKind inject → flag → repair → clean → analyze ----------

class RepairPerKind : public testing::TestWithParam<ViolationKind> {};

TEST_P(RepairPerKind, InjectRepairAnalyze) {
  const ViolationKind kind = GetParam();
  const Fixture& f = fixture();
  ValidateOptions vopts;
  vopts.sync_slack = kSlack;
  ASSERT_TRUE(validate(f.measured, vopts).empty())
      << "fixture trace must start clean";

  const Trace injected = inject_violation(f.measured, kind);
  ASSERT_TRUE(has_kind(validate(injected, vopts), kind))
      << "injection failed to produce " << violation_kind_name(kind);

  RepairOptions ropts;
  ropts.sync_slack = kSlack;
  const auto result = repair(injected, ropts);
  EXPECT_NE(result.manifest.severity, RepairSeverity::kUnsalvageable)
      << render_manifest(result.manifest);
  const auto after = validate(result.repaired, vopts);
  EXPECT_TRUE(after.empty()) << describe(after);

  // The manifest must be populated: at least one action, counted passes.
  EXPECT_FALSE(result.manifest.actions.empty());
  EXPECT_GE(result.manifest.passes, 1u);
  EXPECT_NE(result.manifest.severity, RepairSeverity::kClean);

  // And the repaired trace must be analyzable end to end.
  const auto eb = event_based_approximation(result.repaired, f.ov);
  EXPECT_GT(eb.approx.size(), 0u);
  EXPECT_GT(eb.approx.total_time(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, RepairPerKind,
    testing::Values(ViolationKind::kNonMonotoneProcessorTime,
                    ViolationKind::kAwaitEndBeforeAdvance,
                    ViolationKind::kAwaitEndWithoutAdvance,
                    ViolationKind::kAwaitEndWithoutBegin,
                    ViolationKind::kDuplicateAdvance,
                    ViolationKind::kLockOverlap,
                    ViolationKind::kLockUnbalanced,
                    ViolationKind::kBarrierOrder,
                    ViolationKind::kBarrierIncomplete,
                    ViolationKind::kSemaphoreUnbalanced),
    [](const testing::TestParamInfo<ViolationKind>& param_info) {
      // gtest test names must be alphanumeric; the kind names are kebab-case.
      std::string name = violation_kind_name(param_info.param);
      std::erase_if(name, [](char c) { return !std::isalnum(
                                           static_cast<unsigned char>(c)); });
      return name;
    });

// ---- repair semantics ----------------------------------------------------

TEST(Repair, CleanTraceUntouched) {
  const Fixture& f = fixture();
  RepairOptions opts;
  opts.sync_slack = kSlack;
  const auto result = repair(f.measured, opts);
  EXPECT_EQ(result.manifest.severity, RepairSeverity::kClean);
  EXPECT_TRUE(result.manifest.actions.empty());
  EXPECT_EQ(result.repaired.size(), f.measured.size());
}

TEST(Repair, SkewedClocksAreCosmetic) {
  const Fixture& f = fixture();
  const Trace skewed = skew_timestamps(f.measured, 400, 0.05, 17);
  RepairOptions opts;
  opts.sync_slack = kSlack;
  const auto result = repair(skewed, opts);
  ASSERT_NE(result.manifest.severity, RepairSeverity::kUnsalvageable)
      << render_manifest(result.manifest);
  EXPECT_EQ(result.repaired.size(), skewed.size())
      << "clamping must not drop events";
  ValidateOptions vopts;
  vopts.sync_slack = kSlack;
  EXPECT_TRUE(validate(result.repaired, vopts).empty());
}

TEST(Repair, CompoundDamageRepairs) {
  // Several independent violation classes at once.
  const Fixture& f = fixture();
  Trace damaged = inject_violation(f.measured, ViolationKind::kLockUnbalanced);
  damaged = inject_violation(damaged, ViolationKind::kDuplicateAdvance);
  damaged = inject_violation(damaged, ViolationKind::kBarrierIncomplete);
  RepairOptions opts;
  opts.sync_slack = kSlack;
  const auto result = repair(damaged, opts);
  ASSERT_NE(result.manifest.severity, RepairSeverity::kUnsalvageable)
      << render_manifest(result.manifest);
  ValidateOptions vopts;
  vopts.sync_slack = kSlack;
  const auto after = validate(result.repaired, vopts);
  EXPECT_TRUE(after.empty()) << describe(after);
  EXPECT_GE(result.manifest.actions.size(), 3u);
}

TEST(Repair, TornCaptureRepairsLossy) {
  // A trace cut mid-run: open critical sections, half-finished barrier
  // episodes, awaits without advances.  Repair must close them all.
  const Fixture& f = fixture();
  const Trace torn = truncate_trace(f.measured, 0.6);
  RepairOptions opts;
  opts.sync_slack = kSlack;
  const auto result = repair(torn, opts);
  ASSERT_NE(result.manifest.severity, RepairSeverity::kUnsalvageable)
      << render_manifest(result.manifest);
  ValidateOptions vopts;
  vopts.sync_slack = kSlack;
  EXPECT_TRUE(validate(result.repaired, vopts).empty());
  const auto eb = event_based_approximation(result.repaired, f.ov);
  EXPECT_GT(eb.approx.size(), 0u);
}

TEST(Repair, ManifestRendersAndCounts) {
  const Fixture& f = fixture();
  const Trace injected =
      inject_violation(f.measured, ViolationKind::kSemaphoreUnbalanced);
  RepairOptions opts;
  opts.sync_slack = kSlack;
  const auto result = repair(injected, opts);
  const std::string text = render_manifest(result.manifest);
  EXPECT_NE(text.find("repair:"), std::string::npos);
  EXPECT_GT(result.manifest.events_dropped +
                result.manifest.events_synthesized +
                result.manifest.events_adjusted,
            0u);
}

// ---- v2 binary format: checksums, salvage, back-compat -------------------

TEST(Salvage, TruncatedBinarySalvagesNonEmptyPrefix) {
  const Fixture& f = fixture();
  ASSERT_GT(f.measured.size(), 1100u) << "need >1 chunk for this test";
  const std::string whole = image_of(f.measured);
  // Cut inside the final chunk: the whole-chunk prefix before it survives.
  const std::string torn = truncate_bytes(whole, 0.9);

  // Strict read refuses.
  EXPECT_THROW(read_binary(torn.data(), torn.size()), CheckError);

  // Salvage recovers the longest valid chunk prefix.
  SalvageReport report;
  const Trace salvaged = read_binary_salvage(torn.data(), torn.size(), report);
  EXPECT_FALSE(report.complete);
  EXPECT_GT(salvaged.size(), 0u);
  // The prefix is bytewise-faithful and the report accounts for the rest.
  EXPECT_TRUE(
      salvage_matches_written(f.measured, salvaged.events(), report));
}

TEST(Salvage, IntactFileRoundTripsComplete) {
  const Fixture& f = fixture();
  const std::string bytes = image_of(f.measured);
  SalvageReport report;
  const Trace back = read_binary_salvage(bytes.data(), bytes.size(), report);
  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(equals_written(f.measured, back));
}

TEST(Salvage, FlippedChunkDetectedByChecksum) {
  const Fixture& f = fixture();
  std::string bytes = image_of(f.measured);
  // Flip one bit well past the header, inside event payload data.
  bytes[bytes.size() - 100] =
      static_cast<char>(static_cast<unsigned char>(bytes[bytes.size() - 100]) ^
                        0x10);
  EXPECT_THROW(read_binary(bytes.data(), bytes.size()), CheckError);
  SalvageReport report;
  const Trace salvaged =
      read_binary_salvage(bytes.data(), bytes.size(), report);
  EXPECT_FALSE(report.complete);
  EXPECT_TRUE(salvage_matches_written(f.measured, salvaged.events(), report));
  EXPECT_NE(report.detail.find("checksum"), std::string::npos)
      << report.detail;
}

namespace v1 {

// Hand-rolled legacy v1 writer (unframed, no checksums) for back-compat
// testing — matches the format the seed revision of io.cpp produced.
template <typename T>
void put(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

std::string encode(const Trace& t) {
  std::ostringstream out(std::ios::binary);
  out.write("PTRC", 4);
  put<std::uint32_t>(out, 1);  // version
  put<std::uint32_t>(out, static_cast<std::uint32_t>(t.info().name.size()));
  out.write(t.info().name.data(),
            static_cast<std::streamsize>(t.info().name.size()));
  put<std::uint32_t>(out, t.info().num_procs);
  put<double>(out, t.info().ticks_per_us);
  put<std::uint64_t>(out, t.size());
  for (const auto& e : t) {
    put<Tick>(out, e.time);
    put<std::int64_t>(out, e.payload);
    put<EventId>(out, e.id);
    put<ObjectId>(out, e.object);
    put<ProcId>(out, e.proc);
    put<std::uint8_t>(out, static_cast<std::uint8_t>(e.kind));
  }
  return out.str();
}

}  // namespace v1

TEST(Salvage, ReadsLegacyV1Transparently) {
  const Fixture& f = fixture();
  const std::string bytes = v1::encode(f.measured);
  const Trace back = read_binary(bytes.data(), bytes.size());
  ASSERT_EQ(back.size(), f.measured.size());
  EXPECT_EQ(back.info().num_procs, f.measured.info().num_procs);
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].time, f.measured[i].time);
    EXPECT_EQ(back[i].kind, f.measured[i].kind);
  }
}

TEST(Salvage, TruncatedV1SalvagesPrefix) {
  const Fixture& f = fixture();
  const std::string torn = truncate_bytes(v1::encode(f.measured), 0.5);
  SalvageReport report;
  const Trace salvaged = read_binary_salvage(torn.data(), torn.size(), report);
  EXPECT_FALSE(report.complete);
  EXPECT_GT(salvaged.size(), 0u);
  EXPECT_LT(salvaged.size(), f.measured.size());
  EXPECT_EQ(report.version, 1u);
}

TEST(Salvage, AllocationBombRejectedByName) {
  // A header declaring an absurd event count must be rejected up front —
  // naming the offending field — instead of attempting the allocation.
  std::ostringstream out(std::ios::binary);
  out.write("PTRC", 4);
  v1::put<std::uint32_t>(out, 1);  // v1: the count is entirely unprotected
  v1::put<std::uint32_t>(out, 1);  // name_len
  out.write("m", 1);
  v1::put<std::uint32_t>(out, 2);    // procs
  v1::put<double>(out, 1.0);         // ticks_per_us
  v1::put<std::uint64_t>(out, 1ull << 60);  // declared count: ~30 exabytes
  const std::string bytes = out.str();
  try {
    read_binary(bytes.data(), bytes.size());
    FAIL() << "absurd #count must be rejected";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("#count"), std::string::npos)
        << e.what();
  }
}

TEST(Salvage, V2CountBombRejectedByName) {
  // In v2 the header block is checksummed, but a writer can still declare
  // an absurd count under a valid CRC.  Real trace: 2048 events (two whole
  // chunks); the header claims 1 << 60.
  Trace written({"bomb", 2, 1.0});
  for (int i = 0; i < 2048; ++i) {
    Event e;
    e.time = i;
    e.proc = static_cast<ProcId>(i % 2);
    e.kind = EventKind::kStmtEnter;
    e.id = static_cast<EventId>(i);
    written.append(e);
  }
  std::string bytes = image_of(written);
  // Layout: magic(4) version(4) header_len(4) block[header_len] crc(4); the
  // declared count is the block's last 8 bytes.
  std::uint32_t header_len = 0;
  std::memcpy(&header_len, bytes.data() + 8, sizeof(header_len));
  const std::uint64_t bomb = 1ull << 60;
  std::memcpy(bytes.data() + 12 + header_len - sizeof(bomb), &bomb,
              sizeof(bomb));
  const std::uint32_t crc = support::crc32(bytes.data() + 12, header_len);
  std::memcpy(bytes.data() + 12 + header_len, &crc, sizeof(crc));

  // Strict: rejected up front, naming the field.
  try {
    read_binary(bytes.data(), bytes.size());
    FAIL() << "absurd v2 #count must be rejected";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("#count"), std::string::npos)
        << e.what();
  }

  // Salvage: the real events come back, and the storage reserved for them
  // is bounded by what the image can hold, not by the declared count.
  SalvageReport report;
  const Trace salvaged =
      read_binary_salvage(bytes.data(), bytes.size(), report);
  EXPECT_EQ(salvaged.events(), written.events());
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.events_declared, bomb);
  EXPECT_EQ(report.chunks_recovered, 2u);
  EXPECT_EQ(report.detail, "chunk 2: frame truncated");
  EXPECT_LE(salvaged.events().capacity(),
            bytes.size() / detail::kEventBytes + 1);

  // Feed mode has no total size to check against: the count surfaces as
  // the chunk defect it tears into, in strict and salvage mode alike.
  for (const bool salvage : {false, true}) {
    ChunkReader reader(salvage);
    reader.feed(bytes);
    reader.finish();
    std::vector<Event> chunk;
    std::size_t events = 0;
    try {
      while (reader.next(chunk) == ChunkReader::Status::kChunk)
        events += chunk.size();
      EXPECT_TRUE(salvage) << "strict feed accepted the bomb";
      EXPECT_EQ(reader.report().detail, "chunk 2: frame truncated");
    } catch (const IoError& e) {
      EXPECT_FALSE(salvage);
      EXPECT_EQ(std::string(e.what()), "chunk 2: frame truncated");
    }
    EXPECT_EQ(events, written.size());
  }
}

TEST(Salvage, TextProcsBombRejectedByName) {
  std::istringstream in(
      "#perturb-trace v1\n#name m\n#procs 4294967295\n#ticks_per_us 1\n");
  try {
    read_text(in);
    FAIL() << "absurd #procs must be rejected";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("#procs"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace perturb::trace
