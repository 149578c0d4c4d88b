// ledger — the repository's performance ledger: one workload per run.
//
//   ledger --workload W [--seed S] [--seconds T] [--trace 0|1]
//          [--threads N] [--smoke] [--work DIR] [--record FILE]
//
// Builds the workload's inputs from --seed, runs its correctness gates,
// times untraced jobs for --seconds and, with --trace 1, five traced jobs
// whose spans go to DIR/spans_W.json.  Prints "W metric value unit" for
// every metric it measured, and as its last line one JSON object:
//
//   {"correct": true, "attempted": n, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  --record appends every metric of the run to FILE as one
// JSON line (bench/ledger/compare.py reads those).  A failed gate or error
// exits 1 without a result line.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <thread>

#include "common.hpp"
#include "support/cli.hpp"
#include "support/text.hpp"
#include "workloads.hpp"

namespace {

using ledger::Report;

struct MetricName {
  const char* name;
  const char* unit;
};

/// BENCHMARK.json's end_to_end list: every workload reports all of these.
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"job_p50_s", "s"},
    {"events_per_s", "events/s"},
    {"peak_rss_mb", "MiB"},
};

/// BENCHMARK.json's per_layer list.  A workload that does not exercise a
/// layer reports 0 for it.
constexpr MetricName kPerLayer[] = {
    {"job_tail_s", "s"},
    {"ledger.coverage", "ratio"},
    {"ledger.tracing_overhead", "ratio"},
    {"ledger.calib_ns", "ns"},
    {"core.recon_error_pct", "%"},
    {"sim.simulate.ns_per_event", "ns"},
    {"sim.simulate_actual.ns_per_event", "ns"},
    {"trace.bytes_per_event", "B"},
    {"trace.load.ns_per_event", "ns"},
    {"trace.index.ns_per_event", "ns"},
    {"trace.validate.ns_per_event", "ns"},
    {"trace.violations", "count"},
    {"core.eventbased.ns_per_event", "ns"},
    {"core.eventbased.waits_introduced", "count"},
    {"trace.index_approx.ns_per_event", "ns"},
    {"analysis.critical_path.ns_per_event", "ns"},
    {"analysis.waiting.ns_per_event", "ns"},
    {"analysis.sites.ns_per_event", "ns"},
    {"whatif.dag.ns_per_event", "ns"},
    {"whatif.dag.anchors_per_event", "ratio"},
    {"whatif.rank.us_per_experiment", "us"},
    {"trace.chunk_reader.ns_per_event", "ns"},
    {"core.stream.ns_per_event", "ns"},
    {"core.stream.resident_hwm_events", "events"},
    {"core.stream.spills", "count"},
    {"trace.repair.ns_per_event", "ns"},
    {"model.predict.us_per_cell", "us"},
    {"model.confident_frac", "ratio"},
    {"experiments.analyze_pair.ms_per_cell", "ms"},
    {"experiments.parallel_efficiency", "ratio"},
    {"experiments.partition_imbalance", "ratio"},
    {"experiments.memo_hit_frac", "ratio"},
    {"daemon_jobs_per_s", "jobs/s"},
    {"latency_p50_ms.at30", "ms"},
    {"latency_p99_ms.at30", "ms"},
    {"latency_p50_ms.at60", "ms"},
    {"latency_p99_ms.at60", "ms"},
    {"sustainable_jobs_per_s", "jobs/s"},
    {"loadgen.lateness_ms.p99", "ms"},
    {"server.client_call_ms.p50", "ms"},
    {"server.queue_wait_ms.p50", "ms"},
    {"server.queue_wait_ms.p99", "ms"},
    {"server.service_ms.p50", "ms"},
    {"server.service_ms.p99", "ms"},
    {"server.pipeline_index_us", "us"},
    {"server.pipeline_analyses_us", "us"},
    {"server.stream_chunks", "count"},
};

constexpr const char* kWorkloads[] = {"lfk3-offline", "contention-offline",
                                      "pareto-stream", "experiments-grid",
                                      "daemon-mixed"};

int usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: ledger --workload W [--seed S] [--seconds T] "
               "[--trace 0|1]\n"
               "              [--threads N] [--smoke] [--work DIR] "
               "[--record FILE]\n"
               "workloads: lfk3-offline contention-offline pareto-stream "
               "experiments-grid daemon-mixed\n",
               why.c_str());
  return 2;
}

std::string number(double v) { return perturb::support::strf("%.17g", v); }

std::string metrics_json(const std::map<std::string, Report::Metric>& m) {
  std::string json = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    json += perturb::support::strf(
        "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", first ? "" : ", ",
        name.c_str(), number(metric.value).c_str(), metric.unit.c_str());
    first = false;
  }
  return json + "}";
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<perturb::support::Cli> cli;
  try {
    cli.emplace(argc, argv);
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  ledger::Options options;
  options.workload = cli->get("workload", "");
  if (std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                   [&](const char* w) { return options.workload == w; }) ==
      std::end(kWorkloads))
    return usage("unknown --workload '" + options.workload + "'");
  const std::int64_t seed = cli->get_int("seed", 7);
  const std::int64_t trace = cli->get_int("trace", 0);
  options.seconds = cli->get_double("seconds", 10.0);
  if (seed < 0 || (trace != 0 && trace != 1) || !(options.seconds > 0.0))
    return usage("--seed must be >= 0, --trace 0 or 1, --seconds > 0");
  options.seed = static_cast<std::uint64_t>(seed);
  options.trace = trace == 1;
  options.smoke = cli->get_bool("smoke", false);
  // Every pool and load generator stays within --threads, itself capped at
  // the cores this process may use.
  const std::int64_t hw =
      std::max<std::int64_t>(1, std::thread::hardware_concurrency());
  options.threads = static_cast<std::size_t>(
      std::clamp<std::int64_t>(cli->get_int("threads", 4), 1, hw));
  options.work_dir = cli->get("work", "build-ledger/work");
  const std::string record = cli->get("record", "");

  Report report;
  try {
    std::filesystem::create_directories(options.work_dir);
    report.layer("ledger.calib_ns", ledger::calibration_ns(), "ns");
    if (options.workload == "pareto-stream")
      ledger::run_stream(options, report);
    else if (options.workload == "experiments-grid")
      ledger::run_grid(options, report);
    else if (options.workload == "daemon-mixed")
      ledger::run_daemon(options, report);
    else
      ledger::run_offline(options, report);
    for (const MetricName& m : kEndToEnd)
      ledger::gate(report.end_to_end.count(m.name) == 1,
                   std::string("workload did not report ") + m.name);
    if (options.trace)
      for (const MetricName& m : kPerLayer)
        if (report.per_layer.count(m.name) == 0)
          report.layer(m.name, 0.0, m.unit);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }
  if (!options.trace) report.per_layer.clear();

  for (const auto* set : {&report.end_to_end, &report.per_layer})
    for (const auto& [name, metric] : *set)
      std::printf("%s %s %s %s\n", options.workload.c_str(), name.c_str(),
                  number(metric.value).c_str(), metric.unit.c_str());
  const bool correct = report.failed == 0;
  if (!record.empty()) {
    std::map<std::string, Report::Metric> all = report.end_to_end;
    all.insert(report.per_layer.begin(), report.per_layer.end());
    std::FILE* f = std::fopen(record.c_str(), "a");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot append to %s\n", record.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                 "\"smoke\": %s, \"correct\": %s, \"attempted\": %zu, "
                 "\"failed\": %zu, \"metrics\": %s}\n",
                 options.workload.c_str(),
                 static_cast<unsigned long long>(options.seed),
                 options.trace ? 1 : 0, options.smoke ? "true" : "false",
                 correct ? "true" : "false", report.attempted, report.failed,
                 metrics_json(all).c_str());
    std::fclose(f);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", report.attempted, report.failed,
              metrics_json(options.trace ? report.per_layer
                                         : report.end_to_end)
                  .c_str());
  return 0;
}
