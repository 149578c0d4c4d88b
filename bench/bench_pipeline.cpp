// bench_pipeline — throughput of the unified analysis pipeline.
//
// For Livermore loops 3, 4, and 17 (concurrent mode, full instrumentation)
// at several trip counts, measures:
//
//   * TraceIndex build rate (events/sec), and
//   * each analyzer's rate through core::AnalysisPipeline
//     (time-based, event-based, liberal, likely),
//
// and writes the results as JSON to BENCH_pipeline.json (override with
// --out <path>).  --reps <k> caps the repetitions per measurement (default
// 16; CI smoke runs use --reps 2).
//
// A second section, the hot-path suite, times each stage of the analysis
// hot path (simulate, write, load, index build, event-based reconstruction,
// end-to-end run_file) on a large synthetic DOACROSS trace, and benchmarks
// the index build against the TraceIndex::ReferenceBuild oracle.  Before
// timing it asserts that the loaded trace equals the written one, that the
// fast and reference indexes give identical reconstructions, and that the
// fused pipeline reproduces the reference composition (load, reference
// triage index, reference analysis index, reconstruction) bit for bit.
// Results go to BENCH_hotpath.json (--hotpath-out); --hotpath-n scales the
// trace (default 143000 iterations ≈ 1e6 events) and --hotpath-reps the
// repetitions.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/eventbased.hpp"
#include "core/pipeline.hpp"
#include "loops/programs.hpp"
#include "sim/engine.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/fsio.hpp"
#include "support/text.hpp"
#include "trace/index.hpp"
#include "trace/io.hpp"
#include "trace/validate.hpp"

namespace {

using namespace perturb;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Measurement {
  std::string name;
  bool ok = false;
  double events_per_sec = 0.0;
};

/// Times `reps` runs of `body` and reports the fastest as events/sec.  The
/// best rep estimates the noise-free cost: the mean is skewed arbitrarily by
/// scheduler interference on shared machines, the minimum is not.  A body
/// that throws CheckError (e.g. the liberal extractor on a shape it does not
/// support) yields ok=false instead of aborting the suite.
template <typename Fn>
Measurement measure(const std::string& name, std::size_t events,
                    std::size_t reps, Fn&& body) {
  Measurement m;
  m.name = name;
  try {
    body();  // warm-up; also surfaces unsupported shapes before timing
    double best = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
      const auto start = Clock::now();
      body();
      const double elapsed = seconds_since(start);
      if (elapsed > 0.0 && (best == 0.0 || elapsed < best)) best = elapsed;
    }
    m.ok = true;
    m.events_per_sec =
        best > 0.0 ? static_cast<double>(events) / best : 0.0;
  } catch (const CheckError&) {
    m.ok = false;
  }
  return m;
}

std::string json_number(double v) {
  return support::strf("%.1f", v);
}

bool traces_equal(const trace::Trace& a, const trace::Trace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(a[i] == b[i])) return false;
  return true;
}

void run_hotpath(const support::Cli& cli, const experiments::Setup& setup) {
  const std::int64_t n = cli.get_int("hotpath-n", 143000);
  const std::string out_path = cli.get("hotpath-out", "BENCH_hotpath.json");
  const auto reps =
      static_cast<std::size_t>(cli.get_int("hotpath-reps", 3));

  std::printf(
      "\n== BENCH hotpath ==\n"
      "per-stage rates and the fast index vs its reference build\n"
      "(lfk3 concurrent, n=%lld)\n\n",
      static_cast<long long>(n));

  const auto prog = loops::make_concurrent_ir(3, n);
  const auto plan =
      experiments::make_plan(experiments::PlanKind::kFull, setup);
  const trace::Trace measured =
      sim::simulate(setup.machine, prog, plan, "bench_hotpath");
  const std::size_t events = measured.size();

  core::PipelineOptions options;
  options.overheads = experiments::overheads_for(plan, setup.machine);
  options.machine = setup.machine;

  const std::string tmp = out_path + ".trace.tmp";
  {
    std::ofstream f(tmp, std::ios::binary);
    trace::write_binary(f, measured);
  }

  // One-time equivalence gates: every optimized path must reproduce its
  // reference bit for bit before its rate means anything.
  trace::IoArena arena;
  PERTURB_CHECK_MSG(traces_equal(trace::load(tmp, arena), measured),
                    "hotpath: loaded trace differs from written trace");
  const trace::TraceIndex ref_index(trace::TraceIndex::ReferenceBuild{},
                                    measured);
  const trace::TraceIndex fast_index(measured);
  {
    const auto ref_eb = core::event_based_approximation(
        ref_index, options.overheads, options.event_based);
    const auto fast_eb = core::event_based_approximation(
        fast_index, options.overheads, options.event_based);
    PERTURB_CHECK_MSG(
        traces_equal(ref_eb.approx, fast_eb.approx),
        "hotpath: event-based output differs across index builders");
  }

  std::vector<Measurement> rows;
  rows.push_back(measure("simulate", events, reps, [&] {
    const auto t = sim::simulate(setup.machine, prog, plan, "bench_hotpath");
    if (t.size() != events) std::abort();
  }));
  rows.push_back(measure("write_binary", events, reps, [&] {
    std::ofstream f(tmp, std::ios::binary);
    trace::write_binary(f, measured);
  }));
  rows.push_back(measure("load_buffer", events, reps, [&] {
    const auto t = trace::load(tmp, arena);
    if (t.size() != events) std::abort();
  }));
  rows.push_back(measure("index_reference", events, reps, [&] {
    const trace::TraceIndex idx(trace::TraceIndex::ReferenceBuild{}, measured);
    if (idx.size() != events) std::abort();
  }));
  rows.push_back(measure("index_fast", events, reps, [&] {
    const trace::TraceIndex idx(measured);
    if (idx.size() != events) std::abort();
  }));
  rows.push_back(measure("event_based", events, reps, [&] {
    const auto r = core::event_based_approximation(
        fast_index, options.overheads, options.event_based);
    if (r.approx.size() != events) std::abort();
  }));

  // Reference composition: load, triage over its own reference index, a
  // second reference index for analysis, then the event-based
  // reconstruction.  The fused pipeline below must reproduce it.
  trace::Trace baseline_approx;
  {
    const trace::Trace t = trace::load(tmp, arena);
    const trace::TraceIndex triage(trace::TraceIndex::ReferenceBuild{}, t);
    PERTURB_CHECK_MSG(trace::validate(triage, {}).empty(),
                      "hotpath: reference triage found violations");
    const trace::TraceIndex analysis(trace::TraceIndex::ReferenceBuild{}, t);
    baseline_approx = core::event_based_approximation(
                          analysis, options.overheads, options.event_based)
                          .approx;
  }

  // End-to-end: the product path — zero-copy load, one fast index shared by
  // triage and analysis.
  core::AnalysisPipeline pipeline(options);
  pipeline.add(core::AnalyzerKind::kEventBased);
  trace::Trace fused_approx;
  rows.push_back(measure("end_to_end_optimized", events, reps, [&] {
    auto result = pipeline.run_file(tmp);
    if (!result.acquire.ok) std::abort();
    fused_approx = std::move(result.outputs[0].approx);
  }));
  PERTURB_CHECK_MSG(
      traces_equal(baseline_approx, fused_approx),
      "hotpath: fused pipeline differs from the baseline composition");
  std::remove(tmp.c_str());

  const auto rate_of = [&rows](const char* name) -> double {
    for (const auto& m : rows)
      if (m.name == name && m.ok && m.events_per_sec > 0.0)
        return m.events_per_sec;
    return 0.0;
  };
  const auto ratio = [](double fast, double slow) {
    return slow > 0.0 ? fast / slow : 0.0;
  };
  const double index_speedup = ratio(rate_of("index_fast"),
                                     rate_of("index_reference"));

  std::printf("hotpath (%zu events)\n", events);
  for (const auto& m : rows)
    std::printf("  %-20s %12.0f events/sec\n", m.name.c_str(),
                m.events_per_sec);
  std::printf("  speedup: index build %.2fx\n", index_speedup);

  std::string json = "{\n  \"bench\": \"hotpath\",\n";
  json += support::strf("  \"loop\": 3,\n  \"n\": %lld,\n  \"events\": %zu,\n",
                        static_cast<long long>(n), events);
  json += "  \"rates\": {";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + rows[i].name + "\": " + json_number(rows[i].events_per_sec);
  }
  json += "},\n  \"speedups\": {";
  json += support::strf("\"index_build\": %.3f", index_speedup);
  json += "}\n}\n";

  std::string werr;
  PERTURB_CHECK_MSG(support::write_file_atomic(out_path, json, &werr),
                    "cannot write hotpath bench output file");
  std::printf("wrote %s\n", out_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const support::Cli cli(argc, argv);
  const std::string out_path = cli.get("out", "BENCH_pipeline.json");
  const auto reps =
      static_cast<std::size_t>(cli.get_int("reps", 16));
  bench::print_header("BENCH pipeline",
                      "index-build and per-analyzer throughput (events/sec) "
                      "through core::AnalysisPipeline");

  const experiments::Setup setup = bench::setup_from_cli(cli);
  const std::vector<int> loops_to_run = {3, 4, 17};
  const std::vector<std::int64_t> trips = {128, 512, 1001};

  const std::vector<std::pair<core::AnalyzerKind, const char*>> analyzers = {
      {core::AnalyzerKind::kTimeBased, "time-based"},
      {core::AnalyzerKind::kEventBased, "event-based"},
      {core::AnalyzerKind::kLiberal, "liberal"},
      {core::AnalyzerKind::kLikely, "likely"},
  };

  std::string json = "{\n  \"bench\": \"pipeline\",\n  \"runs\": [\n";
  bool first_run = true;
  for (const int loop : loops_to_run) {
    for (const std::int64_t n : trips) {
      const auto prog = loops::make_concurrent_ir(loop, n);
      const auto plan =
          experiments::make_plan(experiments::PlanKind::kFull, setup);
      const auto measured =
          sim::simulate(setup.machine, prog, plan, "bench_pipeline");
      const std::size_t events = measured.size();

      core::PipelineOptions options;
      options.overheads = experiments::overheads_for(plan, setup.machine);
      options.machine = setup.machine;
      options.likely_samples = 8;  // keep the Monte-Carlo stage bench-sized

      std::vector<Measurement> rows;
      rows.push_back(measure("index-build", events, reps, [&] {
        trace::TraceIndex index(measured);
        if (index.size() != events) std::abort();
      }));

      const trace::TraceIndex index(measured);
      for (const auto& [kind, name] : analyzers) {
        const auto analyzer = core::make_analyzer(kind);
        rows.push_back(measure(name, events, reps, [&] {
          const auto out = analyzer->run(index, options);
          if (out.analyzer.empty()) std::abort();
        }));
      }

      std::printf("lfk%-2d n=%-5lld (%zu events)\n", loop,
                  static_cast<long long>(n), events);
      for (const auto& m : rows) {
        if (m.ok)
          std::printf("  %-12s %12.0f events/sec\n", m.name.c_str(),
                      m.events_per_sec);
        else
          std::printf("  %-12s %12s\n", m.name.c_str(), "unsupported");
      }

      if (!first_run) json += ",\n";
      first_run = false;
      json += support::strf(
          "    {\"loop\": %d, \"n\": %lld, \"events\": %zu, \"rates\": {",
          loop, static_cast<long long>(n), events);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        if (i) json += ", ";
        json += "\"" + rows[i].name + "\": ";
        json += rows[i].ok ? json_number(rows[i].events_per_sec) : "null";
      }
      json += "}}";
    }
  }
  json += "\n  ]\n}\n";

  std::string werr;
  PERTURB_CHECK_MSG(support::write_file_atomic(out_path, json, &werr),
                    "cannot write bench output file");
  std::printf("\nwrote %s\n", out_path.c_str());

  run_hotpath(cli, setup);
  return 0;
}
