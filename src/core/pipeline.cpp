#include "core/pipeline.hpp"

#include <cstdio>
#include <utility>

#include "analysis/critical_path.hpp"
#include "analysis/parallelism.hpp"
#include "analysis/waiting.hpp"
#include "core/timebased.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/text.hpp"
#include "trace/chunk_reader.hpp"

namespace perturb::core {

namespace {

using trace::Trace;
using trace::TraceIndex;

// Self-observability: wall-clock spans of the pipeline composition
// (load → triage → repair → index → analyses) plus tallies of what flowed
// through each stage.  On the single-file, single-thread path the stages are
// disjoint, so the per-stage sums account for nearly all of the end-to-end
// time; batched drivers overlap stages across workers, where the sums
// measure aggregate stage cost instead.
const support::HistogramMetric kPhaseLoad("pipeline.phase.load.ns");
const support::HistogramMetric kPhaseTriage("pipeline.phase.triage.ns");
const support::HistogramMetric kPhaseRepair("pipeline.phase.repair.ns");
const support::HistogramMetric kPhaseIndex("pipeline.phase.index.ns");
const support::HistogramMetric kPhaseAnalyses("pipeline.phase.analyses.ns");
const support::Counter kRuns("pipeline.runs");
const support::Counter kEventsMeasured("pipeline.events.measured");
const support::Counter kTriageViolations("pipeline.triage.violations");
const support::Counter kRepairDropped("pipeline.repair.events_dropped");
const support::Counter kRepairSynthesized("pipeline.repair.events_synthesized");
const support::Counter kRepairAdjusted("pipeline.repair.events_adjusted");
const support::Counter kQualityScored("pipeline.quality.scored");

// Streaming path: chunks decoded, drain passes run, segments spilled to the
// sink, and the high-water mark of events resident in the reconstructor
// (the number the O(window) memory claim is about).
const support::Counter kStreamChunks("pipeline.stream.chunks");
const support::Counter kStreamWindows("pipeline.stream.windows");
const support::Counter kStreamSpills("pipeline.stream.spills");
const support::Gauge kStreamResidentHwm("pipeline.stream.resident_events.hwm");

/// Cooperative cancellation checkpoint at a phase boundary; no-op without a
/// token.  Throws support::CancelledError once the options' token has fired.
void checkpoint(const PipelineOptions& options, const char* where) {
  if (options.cancel != nullptr) options.cancel->check(where);
}

/// StreamSink that folds retired events into the approximated-trace summary
/// (span, total time) without keeping them: the O(window) half of
/// run_stream_file.  The program markers are resolved in merged-trace order
/// — (approximated time, measured index), the CollectSink merge key — so
/// span()/total() equal Trace::span()/total_time() on the collected trace.
class TotalsSink final : public StreamSink {
 public:
  void on_segment(trace::ProcId /*proc*/, const RetimedEvent* events,
                  std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) {
      const trace::Event& e = events[i].event;  // time = approximated
      const std::pair<trace::Tick, std::size_t> key{e.time, events[i].index};
      if (count_ == 0 || e.time < min_) min_ = e.time;
      if (count_ == 0 || e.time > max_) max_ = e.time;
      ++count_;
      if (e.kind == trace::EventKind::kProgramBegin &&
          (!have_begin_ || key < begin_)) {
        have_begin_ = true;
        begin_ = key;
      }
      if (e.kind == trace::EventKind::kProgramEnd &&
          (!have_end_ || key > end_)) {
        have_end_ = true;
        end_ = key;
      }
    }
  }

  trace::Tick span() const { return count_ == 0 ? 0 : max_ - min_; }
  trace::Tick total() const {
    return have_begin_ && have_end_ ? end_.first - begin_.first : span();
  }

 private:
  std::size_t count_ = 0;
  trace::Tick min_ = 0;
  trace::Tick max_ = 0;
  bool have_begin_ = false;
  bool have_end_ = false;
  std::pair<trace::Tick, std::size_t> begin_{};
  std::pair<trace::Tick, std::size_t> end_{};
};

const char* name_of(AnalyzerKind kind) {
  switch (kind) {
    case AnalyzerKind::kTimeBased: return "time-based";
    case AnalyzerKind::kEventBased: return "event-based";
    case AnalyzerKind::kLiberal: return "liberal";
    case AnalyzerKind::kLikely: return "likely";
    case AnalyzerKind::kAnalytic: return "analytic";
  }
  PERTURB_CHECK_MSG(false, "unknown analyzer kind");
  return "";
}

/// True when the analyzer fills AnalyzerOutput::approx with a trace that can
/// be scored against an actual execution.
bool produces_trace(AnalyzerKind kind) {
  return kind != AnalyzerKind::kLikely && kind != AnalyzerKind::kAnalytic;
}

/// One analysis pass over the shared index.  Reentrant: the pipeline runs
/// analyzers concurrently, each writing only its own AnalyzerOutput.
AnalyzerOutput run_analyzer(AnalyzerKind kind, const TraceIndex& index,
                            const PipelineOptions& options) {
  AnalyzerOutput out;
  out.analyzer = name_of(kind);
  // The replay modes re-simulate the loop shape the trace records.
  const auto shape = [&] {
    return extract_doacross_shape(index, options.overheads);
  };
  LiberalOptions replay;
  replay.machine = options.machine;
  replay.schedule = options.schedule;
  switch (kind) {
    case AnalyzerKind::kTimeBased:
      out.approx = time_based_approximation(index.trace(), options.overheads);
      break;
    case AnalyzerKind::kEventBased: {
      EventBasedResult result = event_based_approximation(
          index, options.overheads, options.event_based);
      out.approx = std::move(result.approx);
      result.approx = Trace{};
      out.event_stats = std::move(result);
      break;
    }
    case AnalyzerKind::kLiberal: {
      LiberalResult result = liberal_approximation(shape(), replay);
      out.approx = std::move(result.approx);
      result.approx = Trace{};
      out.liberal = std::move(result);
      break;
    }
    case AnalyzerKind::kLikely: {
      LikelyOptions opt;
      opt.machine = options.machine;
      opt.schedule = options.schedule;
      opt.samples = options.likely_samples;
      opt.cost_uncertainty = options.likely_uncertainty;
      opt.seed = options.seed;
      opt.threads = options.threads;
      out.distribution = likely_executions(shape(), opt);
      break;
    }
    case AnalyzerKind::kAnalytic:
      out.analytic = analytic_approximation(shape(), replay);
      break;
  }
  return out;
}

}  // namespace

std::string render_acquire(const AcquireOutcome& outcome) {
  std::string out;
  if (outcome.salvaged)
    out += "salvage: " + outcome.salvage.describe() + "\n";
  if (outcome.repaired) out += trace::render_manifest(outcome.manifest);
  return out;
}

AcquireOutcome trusted_acquire(Trace measured) {
  AcquireOutcome outcome;
  outcome.measured = std::move(measured);
  outcome.ok = true;
  return outcome;
}

const AnalyzerOutput* PipelineResult::output(std::string_view analyzer) const {
  for (const auto& o : outputs)
    if (o.analyzer == analyzer) return &o;
  return nullptr;
}

AnalysisPipeline::AnalysisPipeline(PipelineOptions options)
    : options_(std::move(options)) {}
AnalysisPipeline::~AnalysisPipeline() = default;
AnalysisPipeline::AnalysisPipeline(AnalysisPipeline&&) noexcept = default;
AnalysisPipeline& AnalysisPipeline::operator=(AnalysisPipeline&&) noexcept =
    default;

AnalysisPipeline& AnalysisPipeline::add(AnalyzerKind kind) {
  analyzers_.push_back(kind);
  return *this;
}

AcquireOutcome AnalysisPipeline::acquire_file(const std::string& path) const {
  trace::IoArena arena;
  return acquire_file(path, arena);
}

AcquireOutcome AnalysisPipeline::acquire_file(const std::string& path,
                                              trace::IoArena& arena) const {
  checkpoint(options_, "load");
  if (options_.repair == RepairMode::kOff) {
    Trace loaded = [&] {
      const support::PhaseTimer timer(kPhaseLoad);
      return trace::load(path, arena);
    }();
    return acquire(std::move(loaded));
  }

  AcquireOutcome outcome;
  {
    const support::PhaseTimer timer(kPhaseLoad);
    outcome.measured = trace::load_salvage(path, outcome.salvage, arena);
  }
  if (!outcome.salvage.complete) {
    outcome.salvaged = true;
    outcome.degraded = true;
  }
  if (outcome.measured.empty()) {
    outcome.diagnosis = support::strf(
        "trace is unsalvageable: no events recovered from %s", path.c_str());
    return outcome;
  }
  AcquireOutcome triaged = acquire(std::move(outcome.measured));
  triaged.salvaged = outcome.salvaged;
  triaged.salvage = std::move(outcome.salvage);
  triaged.degraded |= outcome.degraded;
  return triaged;
}

AcquireOutcome AnalysisPipeline::acquire(Trace measured) const {
  AcquireOutcome outcome;
  if (measured.empty()) {
    // A header-only file (declared count 0, or a salvage that recovered
    // nothing) used to flow all the way into the analyzers and produce NaN
    // ratios; fail the acquisition with a diagnosis instead.
    outcome.diagnosis = "trace contains no events; nothing to analyze";
    outcome.measured = std::move(measured);
    return outcome;
  }
  checkpoint(options_, "triage");
  trace::ValidateOptions validate_opts;
  validate_opts.sync_slack = options_.sync_slack;
  {
    const support::PhaseTimer timer(kPhaseTriage);
    outcome.violations = trace::validate(measured, validate_opts);
  }
  kTriageViolations.add(outcome.violations.size());
  if (outcome.violations.empty()) {
    outcome.measured = std::move(measured);
    outcome.ok = true;
    return outcome;
  }

  if (options_.repair == RepairMode::kOff) {
    outcome.diagnosis = support::strf(
        "input trace has %zu causality violation(s); analysis requires a "
        "happened-before-consistent trace (enable repair to triage):\n%s",
        outcome.violations.size(),
        trace::describe(outcome.violations).c_str());
    outcome.measured = std::move(measured);
    return outcome;
  }

  checkpoint(options_, "repair");
  trace::RepairOptions repair_opts;
  repair_opts.aggressive = options_.repair == RepairMode::kAggressive;
  repair_opts.sync_slack = options_.sync_slack;
  auto result = [&] {
    const support::PhaseTimer timer(kPhaseRepair);
    return trace::repair(measured, repair_opts);
  }();
  outcome.repaired = true;
  outcome.manifest = std::move(result.manifest);
  kRepairDropped.add(outcome.manifest.events_dropped);
  kRepairSynthesized.add(outcome.manifest.events_synthesized);
  kRepairAdjusted.add(outcome.manifest.events_adjusted);
  if (outcome.manifest.severity == trace::RepairSeverity::kUnsalvageable) {
    outcome.diagnosis = support::strf(
        "trace is unsalvageable: %zu violation(s) survived repair:\n%s",
        outcome.manifest.remaining.size(),
        trace::describe(outcome.manifest.remaining).c_str());
    outcome.measured = std::move(measured);
    return outcome;
  }
  outcome.degraded =
      outcome.manifest.severity >= trace::RepairSeverity::kLossy;
  outcome.measured = std::move(result.repaired);
  outcome.ok = true;
  return outcome;
}

void AnalysisPipeline::run_analyzers(PipelineResult& result,
                                     const TraceIndex& index,
                                     const Trace* actual,
                                     support::TaskPool& pool) const {
  // The span covers the whole fan-out on the calling thread, so quality
  // scoring inside the workers is part of the analyses stage.
  const support::PhaseTimer timer(kPhaseAnalyses);
  checkpoint(options_, "analyses");
  result.outputs.resize(analyzers_.size());
  // Independent passes over the shared immutable index: each analyzer
  // writes only its own slot, so the run is deterministic at any thread
  // count.
  pool.parallel_for(analyzers_.size(), [&](std::size_t k) {
    const AnalyzerKind kind = analyzers_[k];
    checkpoint(options_, name_of(kind));
    AnalyzerOutput out = run_analyzer(kind, index, options_);
    if (actual != nullptr && produces_trace(kind)) {
      ApproximationQuality q =
          assess(result.acquire.measured, out.approx, *actual);
      q.degraded_input = result.acquire.degraded;
      out.quality = q;
      kQualityScored.add();
    }
    result.outputs[k] = std::move(out);
  });
}

PipelineResult AnalysisPipeline::run_acquired(AcquireOutcome acquired,
                                              const Trace* actual,
                                              support::TaskPool& pool) const {
  PipelineResult result;
  result.acquire = std::move(acquired);
  if (!result.acquire.ok) return result;
  kRuns.add();
  kEventsMeasured.add(result.acquire.measured.size());

  checkpoint(options_, "index");
  std::optional<TraceIndex> index;
  {
    const support::PhaseTimer timer(kPhaseIndex);
    index.emplace(result.acquire.measured);
  }
  run_analyzers(result, *index, actual, pool);
  return result;
}

PipelineResult AnalysisPipeline::run(AcquireOutcome acquired,
                                     const Trace* actual) const {
  support::TaskPool pool(options_.threads);
  return run_acquired(std::move(acquired), actual, pool);
}

PipelineResult AnalysisPipeline::run_fused(
    Trace measured, const Trace* actual, support::TaskPool& pool,
    trace::IncrementalTraceIndex* builder) const {
  PipelineResult result;
  AcquireOutcome& outcome = result.acquire;
  if (measured.empty()) {
    // Same guard as acquire(): header-only inputs fail with a diagnosis
    // instead of producing NaN analysis output.
    outcome.diagnosis = "trace contains no events; nothing to analyze";
    outcome.measured = std::move(measured);
    return result;
  }
  checkpoint(options_, "index");
  trace::ValidateOptions validate_opts;
  validate_opts.sync_slack = options_.sync_slack;
  outcome.measured = std::move(measured);
  // The index must be built after the trace reaches its final address
  // (outcome.measured); it is read only within this scope.
  std::optional<TraceIndex> index;
  {
    const support::PhaseTimer timer(kPhaseIndex);
    if (builder != nullptr)
      index.emplace(std::move(*builder).seal(outcome.measured));
    else
      index.emplace(outcome.measured);
  }
  {
    const support::PhaseTimer timer(kPhaseTriage);
    outcome.violations = trace::validate(*index, validate_opts);
  }
  kTriageViolations.add(outcome.violations.size());
  if (outcome.violations.empty()) {
    outcome.ok = true;
    kRuns.add();
    kEventsMeasured.add(outcome.measured.size());
    run_analyzers(result, *index, actual, pool);
    return result;
  }

  // Violating input: hand the trace to the standard acquire path (diagnosis
  // or repair).  A repaired trace differs from the loaded one, so the shared
  // index is of no use past this point.  (Triage runs — and is counted —
  // again inside acquire; the counters tally work done, not work needed.)
  return run_acquired(acquire(std::move(outcome.measured)), actual, pool);
}

PipelineResult AnalysisPipeline::run(Trace measured,
                                     const Trace* actual) const {
  support::TaskPool pool(options_.threads);
  return run_fused(std::move(measured), actual, pool);
}

PipelineResult AnalysisPipeline::run_file(const std::string& path,
                                          const Trace* actual) const {
  trace::IoArena arena;
  support::TaskPool pool(options_.threads);
  return run_path(path, actual, arena, pool);
}

PipelineResult AnalysisPipeline::run_path(const std::string& path,
                                          const Trace* actual,
                                          trace::IoArena& arena,
                                          support::TaskPool& pool) const {
  if (options_.repair != RepairMode::kOff)
    return run_acquired(acquire_file(path, arena), actual, pool);
  checkpoint(options_, "load");
  Trace loaded = [&] {
    const support::PhaseTimer timer(kPhaseLoad);
    return trace::load(path, arena);
  }();
  return run_fused(std::move(loaded), actual, pool);
}

PipelineResult AnalysisPipeline::run_sealed(
    Trace measured, trace::IncrementalTraceIndex builder,
    const Trace* actual) const {
  support::TaskPool pool(options_.threads);
  return run_fused(std::move(measured), actual, pool, &builder);
}

StreamOutcome AnalysisPipeline::run_stream_file(const std::string& path,
                                                bool collect) const {
  PERTURB_CHECK_MSG(options_.stream_window >= trace::kChunkEvents,
                    "stream window must hold at least one chunk");
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".ptt") == 0)
    throw trace::MalformedTraceError(
        "text traces cannot be streamed; convert to v2 binary or run batch "
        "mode");
  checkpoint(options_, "load");

  StreamOutcome out;
  // Incremental read through a fixed buffer into the feed-mode reader — NOT
  // a whole-file map: mapped pages the decode touches would stay resident,
  // and bounding resident memory is this entry point's whole purpose.
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr)
    throw trace::IoError("cannot open trace file: " + path);
  struct FileCloser {
    std::FILE* f;
    ~FileCloser() { std::fclose(f); }
  } closer{file};
  trace::ChunkReader reader(options_.repair != RepairMode::kOff);

  CollectSink collected;
  TotalsSink totals;
  StreamingReconstructor recon(options_.overheads, options_.event_based,
                               options_.stream_window,
                               collect ? static_cast<StreamSink&>(collected)
                                       : totals);

  // Measured-trace summary, accumulated in trace order as chunks decode —
  // the same first-wins ProgramBegin / last-wins ProgramEnd scan
  // Trace::total_time() runs over a materialized trace.
  bool have_begin = false;
  bool have_end = false;
  trace::Tick begin_t = 0;
  trace::Tick end_t = 0;
  trace::Tick min_t = 0;
  trace::Tick max_t = 0;
  std::vector<trace::Event> chunk;
  std::vector<char> buffer(256 * 1024);
  bool eof = false;
  for (;;) {
    // Drain every chunk the fed bytes complete before reading more, so the
    // reader's backlog stays bounded by one read buffer.
    while (reader.next(chunk) == trace::ChunkReader::Status::kChunk) {
      checkpoint(options_, "stream");
      ++out.chunks;
      for (const trace::Event& e : chunk) {
        if (out.measured_events == 0 || e.time < min_t) min_t = e.time;
        if (out.measured_events == 0 || e.time > max_t) max_t = e.time;
        ++out.measured_events;
        if (e.kind == trace::EventKind::kProgramBegin && !have_begin) {
          have_begin = true;
          begin_t = e.time;
        }
        if (e.kind == trace::EventKind::kProgramEnd) {
          have_end = true;
          end_t = e.time;
        }
      }
      recon.push(chunk);
    }
    if (eof) break;
    const std::size_t got = std::fread(buffer.data(), 1, buffer.size(), file);
    if (got > 0) reader.feed(buffer.data(), got);
    if (got < buffer.size()) {
      if (std::ferror(file) != 0)
        throw trace::IoError("cannot read trace file: " + path);
      reader.finish();
      eof = true;
    }
  }
  out.info = reader.info();
  out.salvage = reader.report();
  out.salvaged = !out.salvage.complete;
  if (out.measured_events == 0) {
    out.diagnosis =
        out.salvaged
            ? support::strf(
                  "trace is unsalvageable: no events recovered from %s",
                  path.c_str())
            : "trace contains no events; nothing to analyze";
    return out;
  }
  out.measured_span = max_t - min_t;
  out.measured_total = have_begin && have_end ? end_t - begin_t
                                              : out.measured_span;
  kRuns.add();
  kEventsMeasured.add(out.measured_events);

  checkpoint(options_, "analyses");
  out.event_stats = recon.finish();
  if (collect) {
    out.event_stats.approx = collected.take(reader.info());
    out.approx_span = out.event_stats.approx.span();
    out.approx_total = out.event_stats.approx.total_time();
  } else {
    out.approx_span = totals.span();
    out.approx_total = totals.total();
  }
  out.windows = recon.windows_processed();
  out.spills = recon.segments_spilled();
  out.resident_high_water = recon.resident_high_water();
  kStreamChunks.add(out.chunks);
  kStreamWindows.add(out.windows);
  kStreamSpills.add(out.spills);
  kStreamResidentHwm.record_max(
      static_cast<std::int64_t>(out.resident_high_water));
  out.ok = true;
  return out;
}

PipelineResult AnalysisPipeline::run_one(const std::string& path,
                                         const Trace* actual,
                                         trace::IoArena& arena) const {
  try {
    support::TaskPool inline_pool(1);
    return run_path(path, actual, arena, inline_pool);
  } catch (const trace::MalformedTraceError& e) {
    // Invalid content (empty file, bad magic, corrupt header): a per-entry
    // failure, same as an unreadable file — one bad input must not abort
    // the batch.
    PipelineResult failed;
    failed.acquire.diagnosis = e.what();
    return failed;
  } catch (const trace::IoError& e) {
    PipelineResult failed;
    failed.acquire.diagnosis = e.what();
    return failed;
  }
}

std::vector<PipelineResult> AnalysisPipeline::run_many(
    const std::vector<std::string>& paths, const Trace* actual) const {
  std::vector<PipelineResult> results(paths.size());
  support::TaskPool pool(options_.threads);
  std::vector<trace::IoArena> arenas(pool.size());
  // One file per task; worker w is the sole user of arenas[w], so each
  // worker's load buffer is allocated once and reused across its block of
  // files.  Each result slot is written by exactly one task.
  pool.parallel_for(paths.size(), [&](std::size_t worker, std::size_t k) {
    results[k] = run_one(paths[k], actual, arenas[worker]);
  });
  return results;
}

std::string render_pipeline_report(const TraceIndex& index,
                                   const PipelineOptions& options) {
  analysis::WaitClassifier classifier;
  classifier.await_nowait = options.overheads.s_nowait;
  classifier.lock_acquire = options.overheads.lock_acquire;
  classifier.sem_acquire = options.overheads.sem_acquire;
  classifier.barrier_depart = options.overheads.barrier_depart;
  classifier.tolerance = 2;

  std::string out;
  const auto waits = analysis::waiting_analysis(index, classifier);
  out += "\n-- waiting --\n" + analysis::render_waiting_table(waits);
  const auto profile = analysis::parallelism_profile(index, classifier);
  out += support::strf(
      "\n-- parallelism --\naverage %.2f (parallel region %.2f)\n",
      profile.average, profile.average_parallel);
  out += "\n-- critical path --\n" +
         analysis::render_critical_path(analysis::critical_path(index));
  return out;
}

}  // namespace perturb::core
