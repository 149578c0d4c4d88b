// Unified analysis pipeline.
//
// Every consumer of perturbation analysis — the command-line tools, the
// experiment driver, the benchmarks — runs the same sequence:
//
//   load → salvage → triage → repair → index → analyses → quality → report
//
// This module owns that composition.  The front half (acquisition) turns a
// trace file or in-memory trace into an analyzable, happened-before
// consistent measured trace, recording salvage/repair provenance.  The back
// half builds one shared trace::TraceIndex and runs every registered
// analyzer over it — independent passes, so they execute on a deterministic
// task pool (support::parallel_for) with each analyzer writing only its own
// output slot.
//
// The approximation modes (time-based §3, event-based §4, liberal §4.3,
// likely §4.1, analytic §12) are the analyzers, registered by AnalyzerKind
// with AnalysisPipeline::add.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/analytic.hpp"
#include "core/eventbased.hpp"
#include "core/likely.hpp"
#include "core/overheads.hpp"
#include "core/quality.hpp"
#include "support/cancel.hpp"
#include "trace/index.hpp"
#include "trace/io.hpp"
#include "trace/repair.hpp"
#include "trace/trace.hpp"
#include "trace/validate.hpp"

namespace perturb::support {
class TaskPool;
}  // namespace perturb::support

namespace perturb::core {

enum class RepairMode : std::uint8_t {
  kOff,           ///< reject traces with causality violations
  kConservative,  ///< salvage + repair with conservative strategies
  kAggressive,    ///< additionally drop whatever cannot be repaired
};

/// One options struct for the whole pipeline; every stage reads from here.
struct PipelineOptions {
  AnalysisOverheads overheads;    ///< probe means + sync processing costs
  EventBasedOptions event_based;  ///< dependency-model knobs (§4)
  sim::MachineConfig machine;     ///< replay machine for liberal/likely
  sim::Schedule schedule = sim::Schedule::kCyclic;  ///< asserted loop policy
  std::size_t likely_samples = 64;
  double likely_uncertainty = 0.05;
  std::uint64_t seed = 1991;
  /// Worker threads for independent analysis passes and the Monte-Carlo
  /// fan-out; results are bit-identical at any thread count.
  std::size_t threads = 1;
  RepairMode repair = RepairMode::kOff;
  trace::Tick sync_slack = 0;  ///< validation slack for measured traces
  /// Drain threshold for the streaming entry points (run_stream_file): the
  /// windowed reconstructor retires resolved events once this many are
  /// resident.  Must hold at least one chunk (trace::kChunkEvents);
  /// the batch entry points ignore it.
  std::size_t stream_window = 8192;
  /// Optional cooperative-cancellation token (borrowed, not owned; may be
  /// shared with the thread that cancels).  When set, the pipeline polls it
  /// at every phase boundary — after load, before triage/repair/index, and
  /// before each analyzer — and aborts by throwing support::CancelledError.
  /// The server uses this to enforce per-job deadlines without killing the
  /// worker mid-phase.
  const support::CancelToken* cancel = nullptr;
};

/// Provenance of the load→salvage→triage→repair front half.
struct AcquireOutcome {
  trace::Trace measured;  ///< the analyzable trace (post-salvage/repair)
  bool ok = false;
  std::string diagnosis;  ///< why acquisition failed, when !ok
  bool salvaged = false;  ///< binary input was incomplete (see salvage)
  trace::SalvageReport salvage;
  bool repaired = false;  ///< a repair pass ran (manifest is meaningful)
  trace::RepairManifest manifest;
  /// Triage result on the loaded input (pre-repair).
  std::vector<trace::Violation> violations;
  /// True when the measurement was salvaged or repaired with loss; quality
  /// metrics computed from it describe a degraded input.
  bool degraded = false;
};

/// Renders salvage/repair provenance for CLI output; empty for a clean
/// acquisition.
std::string render_acquire(const AcquireOutcome& outcome);

/// Wraps a trace the caller vouches for (e.g. fresh simulator output) as a
/// successful acquisition, skipping triage entirely.
AcquireOutcome trusted_acquire(trace::Trace measured);

/// What one analyzer produced.  `approx` is the approximated trace for the
/// trace-producing modes; mode-specific payloads ride in the optionals
/// (their own `approx` members are left empty to avoid duplicating the
/// trace).
struct AnalyzerOutput {
  std::string analyzer;  ///< name of the producing analyzer
  trace::Trace approx;
  std::optional<EventBasedResult> event_stats;  ///< event-based only
  std::optional<LiberalResult> liberal;         ///< liberal only
  std::optional<LikelyDistribution> distribution;  ///< likely only
  std::optional<AnalyticResult> analytic;       ///< analytic only
  std::optional<ApproximationQuality> quality;  ///< vs actual, when provided
};

/// The approximation modes, each one analysis pass over the shared index.
enum class AnalyzerKind : std::uint8_t {
  kTimeBased,   ///< §3 telescoped overhead subtraction
  kEventBased,  ///< §4 dependency-model reconstruction
  kLiberal,     ///< §4.3 scheduling re-simulation
  kLikely,      ///< §4.1 Monte-Carlo distribution of likely executions
  kAnalytic,    ///< §12 closed-form model prediction (no simulation)
};

struct PipelineResult {
  AcquireOutcome acquire;
  /// One entry per registered analyzer, in registration order.
  std::vector<AnalyzerOutput> outputs;

  /// Output of the named analyzer; nullptr when not registered.
  const AnalyzerOutput* output(std::string_view analyzer) const;
};

/// Outcome of one streaming run (run_stream_file): chunk-incremental decode
/// feeding the windowed event-based reconstructor, with O(stream_window)
/// resident events end to end.
struct StreamOutcome {
  bool ok = false;
  std::string diagnosis;  ///< why the run failed, when !ok
  trace::TraceInfo info;  ///< header of the streamed trace
  bool salvaged = false;  ///< torn input; the valid prefix was analyzed
  trace::SalvageReport salvage;
  /// Measured-trace summary, accumulated at ingest (never materialized):
  /// same values Trace::size/span/total_time report on the batch load.
  std::size_t measured_events = 0;
  trace::Tick measured_span = 0;
  trace::Tick measured_total = 0;
  /// Waiting classification from the reconstructor.  Its `approx` trace is
  /// filled only when the run collected (batch-identical merge); otherwise
  /// the approximated summary rides in approx_span/approx_total.
  EventBasedResult event_stats;
  trace::Tick approx_span = 0;
  trace::Tick approx_total = 0;
  // Streaming observability; also published as pipeline.stream.* metrics.
  std::size_t chunks = 0;
  std::uint64_t windows = 0;
  std::uint64_t spills = 0;
  std::size_t resident_high_water = 0;
};

class AnalysisPipeline {
 public:
  explicit AnalysisPipeline(PipelineOptions options);
  ~AnalysisPipeline();
  AnalysisPipeline(AnalysisPipeline&&) noexcept;
  AnalysisPipeline& operator=(AnalysisPipeline&&) noexcept;

  const PipelineOptions& options() const noexcept { return options_; }

  AnalysisPipeline& add(AnalyzerKind kind);

  /// Acquisition only: load (salvaging when repairing), triage, repair.
  /// I/O failures throw trace::IoError; degraded-but-salvageable inputs come
  /// back ok, unusable ones come back !ok with a diagnosis.
  AcquireOutcome acquire_file(const std::string& path) const;
  /// Same, loading through a caller-owned reusable I/O buffer (see
  /// trace::IoArena); batched drivers pass one arena per worker.
  AcquireOutcome acquire_file(const std::string& path,
                              trace::IoArena& arena) const;
  /// Same triage/repair over an in-memory trace (no load/salvage stage).
  AcquireOutcome acquire(trace::Trace measured) const;

  /// Runs every registered analyzer over one shared index of the acquired
  /// trace.  When `actual` is non-null, each trace-producing analyzer's
  /// output is scored against it (flagged degraded per the acquisition).
  /// When the acquisition failed, no analyzers run.
  PipelineResult run(AcquireOutcome acquired,
                     const trace::Trace* actual = nullptr) const;
  PipelineResult run(trace::Trace measured,
                     const trace::Trace* actual = nullptr) const;
  PipelineResult run_file(const std::string& path,
                          const trace::Trace* actual = nullptr) const;

  /// Streaming analysis: decodes `path` chunk by chunk (trace::ChunkReader)
  /// and re-times events through the windowed event-based reconstructor,
  /// never materializing the whole trace.  `collect` additionally merges the
  /// full approximated trace into the result — bit-identical to the batch
  /// event-based analyzer, at O(trace) memory; leave it off for summaries.
  /// Repair mode selects the decode strategy: kOff is strict (torn input
  /// throws trace::IoError, like trace::load), anything else salvages the
  /// valid prefix.  Triage and repair passes do not run — streaming analyzes
  /// the trace as-is, so feed it trusted measurement output or use the batch
  /// path for inputs that may need repair.
  StreamOutcome run_stream_file(const std::string& path, bool collect) const;

  /// Streaming-server entry: analyzes a trace whose index was built
  /// incrementally while its chunks arrived.  `measured` must hold exactly
  /// the events appended to `builder`, in order.  Triage validates through
  /// the sealed index (same fused fast path as run_file); violating traces
  /// fall back to the standard acquire/repair path.
  PipelineResult run_sealed(trace::Trace measured,
                            trace::IncrementalTraceIndex builder,
                            const trace::Trace* actual = nullptr) const;

  /// Batched driver: runs the full pipeline over every path, fanning the
  /// files across options().threads workers with one reusable load buffer
  /// per worker; each file's analysis runs single-threaded inside its
  /// worker.  Per-file I/O failures are reported in that entry's
  /// AcquireOutcome (!ok + diagnosis) instead of thrown, so one unreadable
  /// file cannot abort the batch.  Results are bit-identical to calling
  /// run_file on each path in order, at any thread count.
  std::vector<PipelineResult> run_many(
      const std::vector<std::string>& paths,
      const trace::Trace* actual = nullptr) const;

 private:
  /// Triage + analysis sharing ONE TraceIndex on the clean-trace fast path:
  /// the validator reads the same index the analyzers consume, instead of
  /// building a private one inside trace::validate.  Falls back to the
  /// standard acquire (repair) path when triage finds violations, since a
  /// repaired trace needs a fresh index anyway.  `builder`, when non-null,
  /// is a chunk-fed incremental index that is sealed over `measured` instead
  /// of building the index from scratch (the run_sealed path).
  PipelineResult run_fused(
      trace::Trace measured, const trace::Trace* actual,
      support::TaskPool& pool,
      trace::IncrementalTraceIndex* builder = nullptr) const;
  /// run_file's body: loads `path` through `arena`, then runs the fused
  /// path, or (when repairing) acquires, indexes and analyzes on `pool`.
  PipelineResult run_path(const std::string& path, const trace::Trace* actual,
                          trace::IoArena& arena,
                          support::TaskPool& pool) const;
  /// run(AcquireOutcome)'s body: indexes an acquired trace and runs every
  /// analyzer over it on `pool`; a failed acquisition runs nothing.
  PipelineResult run_acquired(AcquireOutcome acquired,
                              const trace::Trace* actual,
                              support::TaskPool& pool) const;
  /// run_path for one batch item, single-threaded, with trace::IoError and
  /// trace::MalformedTraceError converted into a failed acquisition.
  PipelineResult run_one(const std::string& path, const trace::Trace* actual,
                         trace::IoArena& arena) const;
  void run_analyzers(PipelineResult& result, const trace::TraceIndex& index,
                     const trace::Trace* actual,
                     support::TaskPool& pool) const;

  PipelineOptions options_;
  std::vector<AnalyzerKind> analyzers_;
};

/// Renders the §5.3 performance report (waiting table, parallelism,
/// critical path) of an approximated trace, read through its index, with
/// classification thresholds taken from the pipeline's overheads.
std::string render_pipeline_report(const trace::TraceIndex& approx,
                                   const PipelineOptions& options);

}  // namespace perturb::core
