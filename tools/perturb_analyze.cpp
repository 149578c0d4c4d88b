// perturb-analyze — offline perturbation analysis of a measured trace file.
//
//   perturb-analyze <measured-trace> [options]
//
// Options:
//   --mode event|time|analytic analysis to run (default: event).  analytic
//                              extracts the loop shape like the liberal mode
//                              but predicts the de-instrumented run with the
//                              closed-form model (src/model) instead of
//                              simulating — it prints the predicted loop
//                              time with an uncertainty estimate and caveats,
//                              produces no approximated trace (--output and
//                              --report do not apply), and asserts a cyclic
//                              schedule on the default machine model
//   --output <file>            write the approximated trace
//   --actual <file>            score the approximation against this trace
//   --stmt-probe <c>           mean statement probe cost (cycles/ticks)
//   --sync-probe <c>           mean synchronization probe cost
//   --control-probe <c>        mean loop/iteration marker probe cost
//   --s-nowait <c>             await processing cost without waiting
//   --s-wait <c>               await resume cost after waiting
//   --lock-acquire <c>         uncontended lock acquisition cost
//   --barrier-depart <c>       barrier departure latency
//   --no-locks / --no-barriers disable those dependency models
//   --sem-capacity <obj>:<cap> declare a counting semaphore's capacity
//                              (repeatable via comma: "1:2,3:4")
//   --sync-slack <t>           timing slack for validating measured traces
//   --repair[=aggressive]      triage and repair a degraded trace instead of
//                              rejecting it: binary input is salvaged (longest
//                              valid prefix of a torn file), causality
//                              violations are repaired per-kind, and the
//                              repair manifest is printed; "aggressive"
//                              additionally drops whatever cannot be repaired
//   --stream[=WINDOW]          stream the trace: decode chunk by chunk and
//                              re-time with the windowed event-based
//                              reconstructor holding ~WINDOW resident events
//                              (default 8192; must hold at least one chunk,
//                              1024 events — smaller values are a usage
//                              error, never a silent fall back to batch).
//                              Requires --mode event; incompatible with
//                              --actual (scoring needs the full traces).
//                              With --repair, torn input is salvaged to its
//                              valid prefix, but repair passes do not run —
//                              use batch mode to repair causality violations.
//                              --output/--report still work: they collect
//                              the merged approximated trace (O(trace)
//                              memory), bit-identical to batch output.
//   --whatif=<site>:<pct>      causal what-if experiment on the recovered
//                              execution: virtually speed up one interned
//                              site ("stmt#5", "loop#2", "lock#1", "sync#3",
//                              "sem#4", "barrier#6") by <pct> percent (an
//                              integer in (0,100]) and report the resulting
//                              makespan, critical path, and waiting.
//                              Requires --mode event and the batch path
//                              (incompatible with --stream).  A malformed
//                              spec or unknown site is a usage error — the
//                              tool never silently analyzes without the
//                              what-if.
//   --whatif-rank[=N]          sweep every site at a fixed 50%% speedup and
//                              print the top-N (default 10) regions by
//                              end-to-end makespan savings
//   --report                   print waiting/parallelism/critical-path report
//   --metrics[=FILE]           emit a self-observability snapshot (JSON) to
//                              stdout or FILE: per-stage pipeline timings,
//                              I/O byte counts, repair tallies (use the
//                              `=FILE` form; a space-separated value would
//                              be taken as the positional trace argument)
//
// Exit codes: 0 success, 1 usage error, 2 unsalvageable/invalid trace,
// 3 I/O error, 4 internal error.
//
// This is the paper's workflow as a command-line tool: capture a measured
// trace (simulator, rt runtime, or your own producer writing the trace
// format), then recover the approximated actual execution offline.  The tool
// itself is a thin shell over core::AnalysisPipeline.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>

#include "analysis/sites.hpp"
#include "core/pipeline.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"
#include "support/cli.hpp"
#include "support/metrics.hpp"
#include "support/text.hpp"
#include "tool_util.hpp"
#include "trace/chunk_reader.hpp"
#include "trace/index.hpp"
#include "trace/io.hpp"
#include "whatif/whatif.hpp"

namespace {

using namespace perturb;

int usage() {
  std::fprintf(stderr,
               "usage: perturb-analyze <measured-trace> [options]\n"
               "  --mode event|time|analytic  --repair[=aggressive]\n"
               "  --sync-slack <t>\n"
               "  --stream[=WINDOW]  --output <f>  --actual <f>  --report\n"
               "  --whatif=<site>:<pct>  --whatif-rank[=N]  --metrics[=FILE]\n"
               "  (see header for all)\n"
               "%s",
               tools::kExitCodeHelp);
  return tools::kExitUsage;
}

/// Builds the analysis overheads from the CLI, rejecting negative costs: a
/// negative probe cost would flow into the reconstruction as a time *bonus*
/// per event, which is never what the flag means.  Returns std::nullopt
/// after printing a one-line usage error.
std::optional<core::AnalysisOverheads> overheads_from_cli(
    const support::Cli& cli) {
  for (const char* name :
       {"stmt-probe", "sync-probe", "control-probe", "s-nowait", "s-wait",
        "lock-acquire", "sem-acquire", "barrier-depart"}) {
    if (cli.get_int(name, 0) < 0) {
      std::fprintf(stderr,
                   "--%s must be a non-negative cost (got %lld)\n", name,
                   static_cast<long long>(cli.get_int(name, 0)));
      return std::nullopt;
    }
  }
  core::AnalysisOverheads ov;
  const auto stmt = cli.get_int("stmt-probe", 0);
  const auto sync = cli.get_int("sync-probe", 0);
  const auto control = cli.get_int("control-probe", 0);
  for (std::uint8_t k = 0; k < trace::kNumEventKinds; ++k) {
    const auto kind = static_cast<trace::EventKind>(k);
    if (trace::is_sync_kind(kind)) {
      ov.probe[k] = sync;
    } else if (kind == trace::EventKind::kStmtEnter ||
               kind == trace::EventKind::kStmtExit ||
               kind == trace::EventKind::kUser) {
      ov.probe[k] = stmt;
    } else {
      ov.probe[k] = control;
    }
  }
  ov.probe[static_cast<std::size_t>(trace::EventKind::kProgramBegin)] = 0;
  ov.probe[static_cast<std::size_t>(trace::EventKind::kProgramEnd)] = 0;
  ov.s_nowait = cli.get_int("s-nowait", 0);
  ov.s_wait = cli.get_int("s-wait", 0);
  ov.lock_acquire = cli.get_int("lock-acquire", 0);
  ov.sem_acquire = cli.get_int("sem-acquire", 0);
  ov.barrier_depart = cli.get_int("barrier-depart", 0);
  return ov;
}

/// Parses "1:2,3:4" into {object: capacity}.
std::map<trace::ObjectId, std::int64_t> capacities_from_cli(
    const support::Cli& cli) {
  std::map<trace::ObjectId, std::int64_t> caps;
  for (const auto& entry :
       support::split(cli.get("sem-capacity", ""), ',')) {
    if (entry.empty()) continue;
    const auto parts = support::split(entry, ':');
    PERTURB_CHECK_MSG(parts.size() == 2,
                      "--sem-capacity expects obj:cap entries");
    caps[static_cast<trace::ObjectId>(
        std::strtoul(parts[0].c_str(), nullptr, 10))] =
        std::strtoll(parts[1].c_str(), nullptr, 10);
  }
  return caps;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perturb;
  std::optional<support::Cli> cli;
  try {
    cli.emplace(argc, argv);
  } catch (const CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  }
  if (cli->positional().empty()) return usage();
  const std::string repair_arg = cli->get("repair", "");
  if (cli->has("repair") && repair_arg != "true" &&
      repair_arg != "aggressive") {
    std::fprintf(stderr, "bad --repair value '%s' (use --repair or "
                         "--repair=aggressive)\n",
                 repair_arg.c_str());
    return usage();
  }
  const std::string mode = cli->get("mode", "event");
  if (mode != "event" && mode != "time" && mode != "analytic") {
    std::fprintf(stderr, "unknown --mode %s (use event|time|analytic)\n",
                 mode.c_str());
    return usage();
  }
  if (mode == "analytic" &&
      (cli->has("output") || cli->get_bool("report", false))) {
    std::fprintf(stderr, "--mode analytic produces no approximated trace; "
                         "--output/--report do not apply\n");
    return usage();
  }

  // --stream[=WINDOW]: 0 keeps the batch path.  An unusable window is a hard
  // usage error — silently analyzing in batch mode would defeat the memory
  // bound the flag asks for.
  std::size_t stream_window = 0;
  if (cli->has("stream")) {
    if (mode != "event") {
      std::fprintf(stderr, "--stream requires --mode event\n");
      return usage();
    }
    if (cli->has("actual")) {
      std::fprintf(stderr, "--stream cannot score against --actual (scoring "
                           "needs the full traces); run batch mode\n");
      return usage();
    }
    const std::string window_arg = cli->get("stream", "");
    if (window_arg == "true") {  // bare --stream
      stream_window = 8192;
    } else {
      const auto n = tools::parse_uint(window_arg, trace::kChunkEvents,
                                       std::uint64_t{1} << 40);
      if (!n) {
        std::fprintf(stderr,
                     "bad --stream window '%s': the window must hold at "
                     "least one chunk (%zu events); refusing to fall back "
                     "to batch mode\n",
                     window_arg.c_str(), trace::kChunkEvents);
        return usage();
      }
      stream_window = static_cast<std::size_t>(*n);
    }
  }

  // --whatif / --whatif-rank: validate the specs up front — a malformed
  // spec must never degrade into a plain analysis (mirrors the --stream
  // window rule).  The site name resolves later, against the recovered
  // trace's registry.
  std::optional<whatif::WhatIfSpec> whatif_spec;
  std::size_t whatif_rank = 0;  // 0 = off
  if (cli->has("whatif")) {
    std::string error;
    whatif_spec = whatif::parse_whatif_spec(cli->get("whatif", ""), &error);
    if (!whatif_spec) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return usage();
    }
  }
  if (cli->has("whatif-rank")) {
    const std::string arg = cli->get("whatif-rank", "");
    if (arg == "true") {  // bare --whatif-rank
      whatif_rank = 10;
    } else {
      // parse_uint, not strtoull: "-3" must be a usage error, not a wrap
      // to an 18-quintillion-site ranking.
      const auto n = tools::parse_uint(arg, 1, 1u << 20);
      if (!n) {
        std::fprintf(stderr,
                     "bad --whatif-rank value '%s': expected a positive "
                     "site count\n",
                     arg.c_str());
        return usage();
      }
      whatif_rank = static_cast<std::size_t>(*n);
    }
  }
  if (whatif_spec || whatif_rank != 0) {
    if (mode != "event") {
      std::fprintf(stderr, "--whatif requires --mode event\n");
      return usage();
    }
    if (stream_window != 0) {
      std::fprintf(stderr,
                   "--whatif needs the batch path; it is incompatible with "
                   "--stream\n");
      return usage();
    }
  }

  const auto overheads = overheads_from_cli(*cli);
  if (!overheads) return usage();

  const tools::MetricsFlag metrics(*cli);
  const int code = tools::run_tool([&]() -> int {
    core::PipelineOptions options;
    options.overheads = *overheads;
    options.event_based.model_locks = !cli->get_bool("no-locks", false);
    options.event_based.model_barriers = !cli->get_bool("no-barriers", false);
    options.event_based.semaphore_capacity = capacities_from_cli(*cli);
    options.sync_slack = cli->get_int("sync-slack", 0);
    if (cli->has("repair"))
      options.repair = repair_arg == "aggressive"
                           ? core::RepairMode::kAggressive
                           : core::RepairMode::kConservative;
    if (stream_window != 0) options.stream_window = stream_window;

    core::AnalysisPipeline pipeline(options);
    pipeline.add(mode == "time"       ? core::AnalyzerKind::kTimeBased
                 : mode == "analytic" ? core::AnalyzerKind::kAnalytic
                                      : core::AnalyzerKind::kEventBased);

    // End-to-end span around the pipeline; a metrics snapshot can relate the
    // per-stage timings to this to see what the stage timers fail to cover.
    static const support::HistogramMetric run_span("tool.run.ns");

    if (stream_window != 0) {
      // Writing the approximated trace or reporting on it needs the full
      // merge; summaries stay O(window).
      const bool collect =
          cli->has("output") || cli->get_bool("report", false);
      const core::StreamOutcome out = [&] {
        const support::PhaseTimer timer(run_span);
        return pipeline.run_stream_file(cli->positional()[0], collect);
      }();
      if (out.salvaged)
        std::printf("salvage: %s\n", out.salvage.describe().c_str());
      if (!out.ok) {
        std::fprintf(stderr, "%s\n", out.diagnosis.c_str());
        return tools::kExitBadTrace;
      }
      std::printf("awaits: %zu, measured waits: %zu, approximated waits: %zu "
                  "(removed %zu, introduced %zu)\n",
                  out.event_stats.awaits_total, out.event_stats.waits_measured,
                  out.event_stats.waits_approx, out.event_stats.waits_removed,
                  out.event_stats.waits_introduced);
      std::printf("measured total time: %lld%s\n",
                  static_cast<long long>(out.measured_total),
                  out.salvaged ? "  (degraded input)" : "");
      std::printf("approximated total:  %lld  (%.3fx of measured)\n",
                  static_cast<long long>(out.approx_total),
                  static_cast<double>(out.approx_total) /
                      static_cast<double>(out.measured_total));
      std::printf("streaming: %zu events in %zu chunks, %llu windows, "
                  "%llu spills, resident high-water %zu events\n",
                  out.measured_events, out.chunks,
                  static_cast<unsigned long long>(out.windows),
                  static_cast<unsigned long long>(out.spills),
                  out.resident_high_water);
      if (cli->has("output")) {
        const std::string path = cli->get("output", "");
        trace::save(path, out.event_stats.approx);
        std::printf("approximated trace written to %s\n", path.c_str());
      }
      if (cli->get_bool("report", false))
        std::printf("%s", core::render_pipeline_report(
                              trace::TraceIndex(out.event_stats.approx),
                              options)
                              .c_str());
      return tools::kExitOk;
    }

    std::optional<trace::Trace> actual;
    if (cli->has("actual")) actual = trace::load(cli->get("actual", ""));

    const auto result = [&] {
      const support::PhaseTimer timer(run_span);
      return pipeline.run_file(cli->positional()[0],
                               actual ? &*actual : nullptr);
    }();
    std::printf("%s", core::render_acquire(result.acquire).c_str());
    if (!result.acquire.ok) {
      std::fprintf(stderr, "%s\n", result.acquire.diagnosis.c_str());
      return tools::kExitBadTrace;
    }

    const core::AnalyzerOutput& out = result.outputs.front();
    if (out.analytic) {
      const trace::Trace& m = result.acquire.measured;
      std::printf("measured total time: %lld%s\n",
                  static_cast<long long>(m.total_time()),
                  result.acquire.degraded ? "  (degraded input)" : "");
      std::printf("predicted loop time: %lld  (model, no simulation)\n",
                  static_cast<long long>(out.analytic->loop_time));
      std::printf("model uncertainty:   %.2f%s\n",
                  out.analytic->uncertainty,
                  out.analytic->caveats.empty() ? "" : "  caveats:");
      for (const auto& caveat : out.analytic->caveats)
        std::printf("  - %s\n", caveat.c_str());
      return tools::kExitOk;
    }
    if (out.event_stats) {
      std::printf("awaits: %zu, measured waits: %zu, approximated waits: %zu "
                  "(removed %zu, introduced %zu)\n",
                  out.event_stats->awaits_total,
                  out.event_stats->waits_measured,
                  out.event_stats->waits_approx,
                  out.event_stats->waits_removed,
                  out.event_stats->waits_introduced);
    }

    const trace::Trace& measured = result.acquire.measured;
    std::printf("measured total time: %lld%s\n",
                static_cast<long long>(measured.total_time()),
                result.acquire.degraded ? "  (degraded input)" : "");
    std::printf("approximated total:  %lld  (%.3fx of measured)\n",
                static_cast<long long>(out.approx.total_time()),
                static_cast<double>(out.approx.total_time()) /
                    static_cast<double>(measured.total_time()));

    if (out.quality) {
      std::printf("vs actual: measured %.3fx, approximated %.3fx "
                  "(%+.1f%% error)%s\n",
                  out.quality->measured_over_actual,
                  out.quality->approx_over_actual, out.quality->percent_error,
                  out.quality->degraded_input
                      ? "  [degraded: repaired input]"
                      : "");
    }

    if (cli->has("output")) {
      const std::string path = cli->get("output", "");
      trace::save(path, out.approx);
      std::printf("approximated trace written to %s\n", path.c_str());
    }
    const bool report = cli->get_bool("report", false);
    if (!report && !whatif_spec && whatif_rank == 0) return tools::kExitOk;
    // One index of the approximation serves the report and the what-if.
    const trace::TraceIndex index(out.approx);
    if (report)
      std::printf("%s", core::render_pipeline_report(index, options).c_str());

    if (whatif_spec || whatif_rank != 0) {
      const analysis::SiteRegistry sites(index);
      std::optional<whatif::WhatIfPlan> plan;
      if (whatif_spec) {
        const auto site = sites.parse(whatif_spec->site);
        if (!site || *site == analysis::SiteRegistry::npos) {
          std::fprintf(stderr,
                       "--whatif names unknown site '%s' (not present in "
                       "this trace)\n",
                       whatif_spec->site.c_str());
          return tools::kExitUsage;
        }
        plan = whatif::WhatIfPlan{*site, whatif_spec->pct};
      }
      const whatif::WhatIfDag dag(index, sites);
      whatif::WhatIfEngine engine(dag);
      if (plan)
        std::printf("%s",
                    whatif::render_whatif(dag, *plan, engine.run(*plan))
                        .c_str());
      if (whatif_rank != 0) {
        support::TaskPool pool;
        std::printf("%s",
                    whatif::render_whatif_ranking(
                        dag, 50, engine.rank(50, pool, whatif_rank))
                        .c_str());
      }
    }
    return tools::kExitOk;
  });
  return metrics.finish(code);
}
