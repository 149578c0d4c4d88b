// Offline workloads: the analyst job (lfk3-offline, contention-offline) and
// the memory-bounded stream (pareto-stream), all over a v2 binary trace file
// simulated at set-up.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>

#include "analysis/critical_path.hpp"
#include "analysis/sites.hpp"
#include "analysis/waiting.hpp"
#include "core/pipeline.hpp"
#include "experiments/experiments.hpp"
#include "loops/programs.hpp"
#include "pins.hpp"
#include "support/parallel.hpp"
#include "support/text.hpp"
#include "trace/chunk_reader.hpp"
#include "trace/io.hpp"
#include "whatif/whatif.hpp"
#include "workload/workload.hpp"
#include "workloads.hpp"

namespace ledger {

namespace {

using namespace perturb;

/// Validation slack for measured traces: above the full plan's 90-tick sync
/// probe, as perturb-server uses by default.
constexpr trace::Tick kSyncSlack = 130;
constexpr std::size_t kStreamWindow = 8192;

/// The program a workload simulates.  Synthesized families pin the shape
/// knobs they would otherwise draw per seed (chain / guard choice), so every
/// seed yields the same amount of work and the seed moves only costs and
/// probe jitter.
struct Program {
  sim::Program program;
  std::string name;
  std::map<trace::ObjectId, std::int64_t> caps;
};

Program make_program(const Options& options) {
  Program p;
  if (options.workload == "lfk3-offline") {
    p.program = loops::make_concurrent_ir(3, options.smoke ? 8000 : 143000);
    p.name = "lfk3-con";
    return p;
  }
  const bool contention = options.workload == "contention-offline";
  const std::string text = support::strf(
      contention ? "contention:%llu:trip=%d,crit=1,sem=0"
                 : "pareto:%llu:trip=%d,chain=1",
      static_cast<unsigned long long>(options.seed),
      options.smoke ? 2000 : 40000);
  std::string error;
  const auto spec = workload::parse_workload(text, &error);
  gate(spec.has_value(), "bad workload spec: " + error);
  p.program = workload::make_program(*spec);
  p.name = workload::workload_name(*spec);
  p.caps = workload::semaphore_capacities(p.program);
  return p;
}

experiments::Setup make_setup(const Options& options) {
  experiments::Setup setup;
  setup.seed = jitter_seed(options.seed);
  return setup;
}

core::PipelineOptions pipeline_options(const experiments::Setup& setup,
                                       const Program& program) {
  core::PipelineOptions o;
  o.overheads = experiments::overheads_for(
      experiments::make_plan(experiments::PlanKind::kFull, setup),
      setup.machine);
  o.machine = setup.machine;
  o.sync_slack = kSyncSlack;
  o.event_based.semaphore_capacity = program.caps;
  o.stream_window = kStreamWindow;
  return o;
}

/// The input file plus what set-up learned while simulating it.
struct Input {
  std::string path;
  double events = 0.0;
  trace::Tick actual_total = 0;
  double sim_ns_per_event = 0.0;
  double sim_actual_ns_per_event = 0.0;
  double bytes = 0.0;
};

/// Simulates the actual and measured runs in a forked child (so the parent
/// never holds them) and writes the measured trace.
Input generate(const Options& options, const std::string& path) {
  const Program program = make_program(options);
  const experiments::Setup setup = make_setup(options);
  const ChildResult child = run_in_child([&] {
    const auto plan =
        experiments::make_plan(experiments::PlanKind::kFull, setup);
    auto start = Clock::now();
    const trace::Trace actual = sim::simulate_actual(
        setup.machine, program.program, program.name + "/actual");
    const double actual_s = seconds_since(start);
    start = Clock::now();
    const trace::Trace measured = sim::simulate(
        setup.machine, program.program, plan, program.name + "/measured");
    const double measured_s = seconds_since(start);
    trace::save(path, measured);
    return Payload{measured.size(),
                   static_cast<std::uint64_t>(actual.total_time()),
                   static_cast<std::uint64_t>(measured_s * 1e9),
                   static_cast<std::uint64_t>(actual_s * 1e9)};
  });
  Input input;
  input.path = path;
  input.events = static_cast<double>(child.out[0]);
  input.actual_total = static_cast<trace::Tick>(child.out[1]);
  input.sim_ns_per_event = static_cast<double>(child.out[2]) / input.events;
  input.sim_actual_ns_per_event =
      static_cast<double>(child.out[3]) / input.events;
  input.bytes = static_cast<double>(std::filesystem::file_size(path));
  return input;
}

Input set_up(const Options& options, Report& report) {
  Input input;
  const std::string path = options.work_dir + "/" + options.workload + ".bin";
  report_setup(options, [&] { input = generate(options, path); }, report);
  report.layer("sim.simulate.ns_per_event", input.sim_ns_per_event, "ns");
  report.layer("sim.simulate_actual.ns_per_event",
               input.sim_actual_ns_per_event, "ns");
  report.layer("trace.bytes_per_event", input.bytes / input.events, "B");
  return input;
}

double recon_error_pct(trace::Tick approx_total, trace::Tick actual_total) {
  return std::abs(static_cast<double>(approx_total) /
                      static_cast<double>(actual_total) -
                  1.0) *
         100.0;
}

/// At the default seed, the reconstruction error must equal its pinned
/// value: a different value means a different program is being timed.
void check_pinned_error(const Options& options, double error) {
  if (options.smoke || options.seed != 7) return;
  const double pin = pinned_recon_error_pct(options.workload);
  gate(std::abs(error - pin) < 1e-6,
       support::strf("recon_error_pct %.9f differs from the pinned %.9f",
                     error, pin));
}

// ---- the analyst job --------------------------------------------------------

/// Everything after reconstruction: index the approximation, critical path,
/// waiting, site registry, what-if DAG and a top-10 ranking at 50%.
struct Analyses {
  std::unique_ptr<trace::TraceIndex> index;
  analysis::CriticalPathStats path;
  analysis::WaitingStats waits;
  std::unique_ptr<analysis::SiteRegistry> sites;
  std::unique_ptr<whatif::WhatIfDag> dag;
  std::vector<whatif::SiteImpact> ranking;
};

analysis::WaitClassifier classifier_for(const core::PipelineOptions& o) {
  analysis::WaitClassifier c;
  c.await_nowait = o.overheads.s_nowait;
  c.lock_acquire = o.overheads.lock_acquire;
  c.sem_acquire = o.overheads.sem_acquire;
  c.barrier_depart = o.overheads.barrier_depart;
  c.tolerance = 2;
  return c;
}

/// Runs the analyses over `approx`; with a tracer, each call gets a span.
void analyze(const trace::Trace& approx, const core::PipelineOptions& o,
             std::size_t threads, Analyses& a, Tracer* tracer,
             std::int32_t job) {
  {
    const Span s(tracer, "trace.index_approx", job);
    a.index = std::make_unique<trace::TraceIndex>(approx);
  }
  {
    const Span s(tracer, "analysis.critical_path", job);
    a.path = analysis::critical_path(*a.index);
  }
  {
    const Span s(tracer, "analysis.waiting", job);
    a.waits = analysis::waiting_analysis(*a.index, classifier_for(o));
  }
  {
    const Span s(tracer, "analysis.sites", job);
    a.sites = std::make_unique<analysis::SiteRegistry>(*a.index);
  }
  {
    const Span s(tracer, "whatif.dag", job);
    a.dag = std::make_unique<whatif::WhatIfDag>(*a.index, *a.sites);
  }
  {
    const Span s(tracer, "whatif.rank", job);
    whatif::WhatIfEngine engine(*a.dag);
    support::TaskPool pool(threads);
    a.ranking = engine.rank(50, pool, 10);
  }
}

std::uint64_t job_digest(const trace::Trace& approx, const Analyses& a) {
  std::uint64_t h = kDigestBasis;
  h = mix(h, approx.size());
  h = mix(h, static_cast<std::uint64_t>(approx.total_time()));
  h = mix(h, static_cast<std::uint64_t>(approx.span()));
  h = mix(h, static_cast<std::uint64_t>(a.path.length));
  h = mix(h, a.path.path.size());
  h = mix(h, a.path.cross_processor_links);
  for (const trace::Tick w : a.waits.waiting_time)
    h = mix(h, static_cast<std::uint64_t>(w));
  h = mix(h, a.waits.intervals.size());
  h = mix(h, a.sites->size());
  h = mix(h, a.dag->num_anchors());
  h = mix(h, a.dag->num_edges());
  for (const whatif::SiteImpact& r : a.ranking) {
    h = mix(h, r.site);
    h = mix(h, static_cast<std::uint64_t>(r.savings));
    h = mix(h, static_cast<std::uint64_t>(r.result.critical_path));
  }
  return h;
}

/// The untraced job: the pipeline's own run_file, then the analyses.
struct UntracedJob {
  core::PipelineResult result;
  Analyses analyses;
  const trace::Trace& approx() const {
    return result.output("event-based")->approx;
  }
};

void untraced_job(const core::AnalysisPipeline& pipeline,
                  const std::string& path, std::size_t threads,
                  UntracedJob& out) {
  out.result = pipeline.run_file(path);
  gate(out.result.acquire.ok,
       "run_file failed: " + out.result.acquire.diagnosis);
  analyze(out.approx(), pipeline.options(), threads, out.analyses, nullptr, 0);
}

/// The traced job: run_file decomposed into the calls it makes (load, index,
/// validate, event-based reconstruction), each inside a span.
struct TracedJob {
  trace::Trace measured;
  std::unique_ptr<trace::TraceIndex> index;
  std::vector<trace::Violation> violations;
  core::EventBasedResult reconstruction;
  Analyses analyses;
};

void traced_job(const core::PipelineOptions& o, const std::string& path,
                std::size_t threads, Tracer* tracer, std::int32_t job,
                TracedJob& out) {
  const Span job_span(tracer, "job", job);
  {
    const Span s(tracer, "trace.load", job);
    out.measured = trace::load(path);
  }
  support::TaskPool inline_pool(1);
  {
    const Span s(tracer, "trace.index", job);
    out.index = std::make_unique<trace::TraceIndex>(out.measured, inline_pool);
  }
  {
    const Span s(tracer, "trace.validate", job);
    trace::ValidateOptions v;
    v.sync_slack = o.sync_slack;
    out.violations = trace::validate(*out.index, v);
  }
  {
    const Span s(tracer, "core.eventbased", job);
    out.reconstruction =
        core::event_based_approximation(*out.index, o.overheads, o.event_based);
  }
  analyze(out.reconstruction.approx, o, threads, out.analyses, tracer, job);
}

}  // namespace

void run_offline(const Options& options, Report& report) {
  const Input input = set_up(options, report);
  const Program program = make_program(options);
  const core::PipelineOptions popts =
      pipeline_options(make_setup(options), program);
  core::AnalysisPipeline pipeline(popts);
  pipeline.add(core::AnalyzerKind::kEventBased);

  std::uint64_t child_digest = 0;
  report.e2e("peak_rss_mb", peak_rss_mb([&] {
               UntracedJob job;
               untraced_job(pipeline, input.path, options.threads, job);
               return job_digest(job.approx(), job.analyses);
             }, child_digest),
             "MiB");

  // Gates: the decomposed job reproduces run_file's approximation bit for
  // bit and the same analyses; the error matches its pin.
  std::uint64_t expect = 0;
  trace::Trace reference;
  {
    UntracedJob job;
    untraced_job(pipeline, input.path, options.threads, job);
    expect = job_digest(job.approx(), job.analyses);
    reference = job.approx();
    const double error =
        recon_error_pct(reference.total_time(), input.actual_total);
    report.layer("core.recon_error_pct", error, "%");
    check_pinned_error(options, error);
  }
  gate(child_digest == expect, "forked job output differs from in-process");
  {
    TracedJob job;
    traced_job(popts, input.path, options.threads, nullptr, 0, job);
    gate(job.violations.empty(), "measured trace has causality violations");
    gate(same_events(job.reconstruction.approx, reference),
         "decomposed reconstruction differs from run_file's");
    gate(job_digest(job.reconstruction.approx, job.analyses) == expect,
         "decomposed analyses differ from the untraced job's");
  }
  reference = trace::Trace{};

  const auto untraced = [&](bool& ok) {
    UntracedJob job;
    const auto start = Clock::now();
    untraced_job(pipeline, input.path, options.threads, job);
    const double secs = seconds_since(start);
    ok = job_digest(job.approx(), job.analyses) == expect;
    return secs;
  };
  const std::vector<double> samples =
      run_loop(options.seconds, options.smoke ? 3 : 40, untraced, report);
  report_job_times(samples, 0.75, report);
  report.e2e("events_per_s", input.events / median(samples), "events/s");
  if (!options.trace) return;

  Tracer tracer;
  std::size_t sites = 0;
  double anchors = 0.0;
  double waits_introduced = 0.0;
  double violations = 0.0;
  const std::vector<double> paired = run_traced(
      options, untraced,
      [&](std::int32_t j) {
        TracedJob job;
        traced_job(popts, input.path, options.threads, &tracer, j, job);
        ++report.attempted;
        if (job_digest(job.reconstruction.approx, job.analyses) != expect)
          ++report.failed;
        sites = job.analyses.sites->size();
        anchors = static_cast<double>(job.analyses.dag->num_anchors());
        waits_introduced =
            static_cast<double>(job.reconstruction.waits_introduced);
        violations = static_cast<double>(job.violations.size());
      },
      report);
  const std::size_t jobs = paired.size();
  report_tracing(tracer, median(paired), options, report);
  const auto self_ns = tracer.self_ns();
  const double events = input.events * static_cast<double>(jobs);
  for (const char* name :
       {"trace.load", "trace.index", "trace.validate", "core.eventbased",
        "trace.index_approx", "analysis.critical_path", "analysis.waiting",
        "analysis.sites", "whatif.dag"})
    report.layer(std::string(name) + ".ns_per_event",
                 ns_per_event(self_ns, name, events), "ns");
  report.layer("trace.violations", violations, "count");
  report.layer("core.eventbased.waits_introduced", waits_introduced, "count");
  report.layer("whatif.dag.anchors_per_event", anchors / input.events,
               "ratio");
  report.layer("whatif.rank.us_per_experiment",
               ns_per_event(self_ns, "whatif.rank",
                            static_cast<double>(jobs * sites)) /
                   1e3,
               "us");
}

// ---- pareto-stream ----------------------------------------------------------

namespace {

/// Streaming totals in a comparable form.
std::uint64_t stream_digest(std::size_t measured_events,
                            trace::Tick measured_span,
                            trace::Tick measured_total,
                            const core::EventBasedResult& stats,
                            trace::Tick approx_span, trace::Tick approx_total) {
  std::uint64_t h = kDigestBasis;
  for (const std::uint64_t v :
       {static_cast<std::uint64_t>(measured_events),
        static_cast<std::uint64_t>(measured_span),
        static_cast<std::uint64_t>(measured_total),
        static_cast<std::uint64_t>(approx_span),
        static_cast<std::uint64_t>(approx_total),
        static_cast<std::uint64_t>(stats.awaits_total),
        static_cast<std::uint64_t>(stats.waits_measured),
        static_cast<std::uint64_t>(stats.waits_approx),
        static_cast<std::uint64_t>(stats.waits_removed),
        static_cast<std::uint64_t>(stats.waits_introduced)})
    h = mix(h, v);
  return h;
}

std::uint64_t stream_digest(const core::StreamOutcome& out) {
  return stream_digest(out.measured_events, out.measured_span,
                       out.measured_total, out.event_stats, out.approx_span,
                       out.approx_total);
}

/// Folds retired events into the approximated trace's span and total time
/// without keeping them, ordered like the merged trace: the summary sink of
/// AnalysisPipeline::run_stream_file, which the traced stream job needs to
/// reproduce that call from its parts.
class TotalsSink final : public core::StreamSink {
 public:
  void on_segment(trace::ProcId /*proc*/, const core::RetimedEvent* events,
                  std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) {
      const trace::Event& e = events[i].event;
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

struct TracedStream {
  std::uint64_t digest = 0;
  std::size_t resident_high_water = 0;
  std::uint64_t spills = 0;
};

/// run_stream_file(path, collect=false) decomposed into its reads, chunk
/// decodes and reconstructor calls, each inside a span.
TracedStream traced_stream(const core::PipelineOptions& o,
                           const std::string& path, Tracer* tracer,
                           std::int32_t job) {
  const Span job_span(tracer, "job", job);
  std::FILE* file = std::fopen(path.c_str(), "rb");
  gate(file != nullptr, "cannot open " + path);
  struct Closer {
    std::FILE* f;
    ~Closer() { std::fclose(f); }
  } closer{file};
  trace::ChunkReader reader(false);
  TotalsSink totals;
  core::StreamingReconstructor recon(o.overheads, o.event_based,
                                     o.stream_window, totals);
  std::size_t events = 0;
  bool have_begin = false;
  bool have_end = false;
  trace::Tick begin_t = 0;
  trace::Tick end_t = 0;
  trace::Tick min_t = 0;
  trace::Tick max_t = 0;
  std::vector<trace::Event> chunk;
  std::vector<char> buffer(256 * 1024);
  for (bool eof = false;;) {
    for (;;) {
      trace::ChunkReader::Status status;
      {
        const Span s(tracer, "trace.chunk_reader", job);
        status = reader.next(chunk);
      }
      if (status != trace::ChunkReader::Status::kChunk) break;
      {
        // run_stream_file's own measured-trace summary, taken as chunks
        // decode.
        const Span summary(tracer, "core.pipeline", job);
        for (const trace::Event& e : chunk) {
          if (events == 0 || e.time < min_t) min_t = e.time;
          if (events == 0 || e.time > max_t) max_t = e.time;
          ++events;
          if (e.kind == trace::EventKind::kProgramBegin && !have_begin) {
            have_begin = true;
            begin_t = e.time;
          }
          if (e.kind == trace::EventKind::kProgramEnd) {
            have_end = true;
            end_t = e.time;
          }
        }
      }
      const Span s(tracer, "core.stream", job);
      recon.push(chunk);
    }
    if (eof) break;
    std::size_t got = 0;
    {
      const Span s(tracer, "io.read", job);
      got = std::fread(buffer.data(), 1, buffer.size(), file);
    }
    if (got > 0) {
      const Span s(tracer, "trace.chunk_reader", job);
      reader.feed(buffer.data(), got);
    }
    if (got < buffer.size()) {
      gate(std::ferror(file) == 0, "cannot read " + path);
      reader.finish();
      eof = true;
    }
  }
  core::EventBasedResult stats;
  {
    const Span s(tracer, "core.stream", job);
    stats = recon.finish();
  }
  const trace::Tick span = max_t - min_t;
  TracedStream out;
  out.digest = stream_digest(events, span,
                             have_begin && have_end ? end_t - begin_t : span,
                             stats, totals.span(), totals.total());
  out.resident_high_water = recon.resident_high_water();
  out.spills = recon.segments_spilled();
  return out;
}

}  // namespace

void run_stream(const Options& options, Report& report) {
  const Input input = set_up(options, report);
  const Program program = make_program(options);
  const core::PipelineOptions popts =
      pipeline_options(make_setup(options), program);
  const core::AnalysisPipeline pipeline(popts);

  std::uint64_t child_digest = 0;
  report.e2e("peak_rss_mb", peak_rss_mb([&] {
               return stream_digest(
                   pipeline.run_stream_file(input.path, false));
             }, child_digest),
             "MiB");

  // Gates: streamed totals equal the batch analysis of the same file, and
  // the decomposed stream reproduces run_stream_file.
  const core::StreamOutcome streamed =
      pipeline.run_stream_file(input.path, false);
  gate(streamed.ok, "run_stream_file failed: " + streamed.diagnosis);
  const std::uint64_t expect = stream_digest(streamed);
  gate(child_digest == expect, "forked stream output differs from in-process");
  {
    core::AnalysisPipeline batch(popts);
    batch.add(core::AnalyzerKind::kEventBased);
    const core::PipelineResult b = batch.run_file(input.path);
    gate(b.acquire.ok, "batch run_file failed: " + b.acquire.diagnosis);
    const core::AnalyzerOutput& out = *b.output("event-based");
    const trace::Trace& m = b.acquire.measured;
    gate(stream_digest(m.size(), m.span(), m.total_time(), *out.event_stats,
                       out.approx.span(), out.approx.total_time()) == expect,
         "streamed totals differ from batch totals");
  }
  gate(traced_stream(popts, input.path, nullptr, 0).digest == expect,
       "decomposed stream differs from run_stream_file");
  const double error =
      recon_error_pct(streamed.approx_total, input.actual_total);
  report.layer("core.recon_error_pct", error, "%");
  check_pinned_error(options, error);

  const auto untraced = [&](bool& ok) {
    const auto start = Clock::now();
    const core::StreamOutcome out = pipeline.run_stream_file(input.path, false);
    const double secs = seconds_since(start);
    ok = out.ok && stream_digest(out) == expect;
    return secs;
  };
  const std::vector<double> samples =
      run_loop(options.seconds, options.smoke ? 3 : 200, untraced, report);
  report_job_times(samples, 0.95, report);
  report.e2e("events_per_s", input.events / median(samples), "events/s");
  if (!options.trace) return;

  Tracer tracer;
  TracedStream last;
  const std::vector<double> paired = run_traced(
      options, untraced,
      [&](std::int32_t j) {
        last = traced_stream(popts, input.path, &tracer, j);
        ++report.attempted;
        if (last.digest != expect) ++report.failed;
      },
      report);
  const std::size_t jobs = paired.size();
  report_tracing(tracer, median(paired), options, report);
  const auto self_ns = tracer.self_ns();
  const double events = input.events * static_cast<double>(jobs);
  report.layer("trace.chunk_reader.ns_per_event",
               ns_per_event(self_ns, "trace.chunk_reader", events), "ns");
  report.layer("core.stream.ns_per_event",
               ns_per_event(self_ns, "core.stream", events), "ns");
  report.layer("core.stream.resident_hwm_events",
               static_cast<double>(last.resident_high_water), "events");
  report.layer("core.stream.spills", static_cast<double>(last.spills),
               "count");
}

}  // namespace ledger
