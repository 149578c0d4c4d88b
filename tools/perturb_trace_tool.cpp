// perturb-trace — trace file inspector.
//
//   perturb-trace info <file>            metadata + per-kind/per-proc counts
//   perturb-trace stats <file>           same numbers, but v2 binary files
//                                        are decoded chunk by chunk (O(chunk)
//                                        resident memory, torn files reported
//                                        and summarized to their valid
//                                        prefix); text/v1 inputs fall back to
//                                        a full load
//   perturb-trace validate <file>        causality checks; exit 2 on violations
//   perturb-trace dump <file> [--limit N] print events as text
//   perturb-trace convert <in> <out>     convert between text (.ptt) / binary
//   perturb-trace merge <out> <in...>    merge per-processor trace files
//   perturb-trace critical-path <file>   critical-path breakdown
//   perturb-trace repair <in> <out> [--aggressive] [--sync-slack N]
//                                        salvage + repair a degraded trace
//
// All commands accept --metrics[=FILE]: emit a self-observability snapshot
// (JSON) to stdout or FILE after the command runs.
//
// Exit codes: 0 success, 1 usage error, 2 unsalvageable/invalid trace,
// 3 I/O error, 4 internal error.
//
// Trace files are written by trace::save (text when the path ends in .ptt,
// binary otherwise); the simulator, the rt runtime, and perturb-analyze all
// produce them.
#include <cstdio>
#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/critical_path.hpp"
#include "core/pipeline.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "tool_util.hpp"
#include "trace/chunk_reader.hpp"
#include "trace/io.hpp"
#include "trace/trace_stats.hpp"
#include "trace/validate.hpp"

namespace {

using namespace perturb;

int usage() {
  std::fprintf(stderr,
               "usage: perturb-trace <info|stats|validate|dump|convert|merge|"
               "critical-path|repair> <file> [args]\n"
               "  repair <in> <out> [--aggressive] [--sync-slack N]\n"
               "%s",
               tools::kExitCodeHelp);
  return tools::kExitUsage;
}

int cmd_info(const trace::Trace& t) {
  std::printf("name:          %s\n", t.info().name.c_str());
  std::printf("processors:    %u\n", t.info().num_procs);
  std::printf("ticks per us:  %.3f\n", t.info().ticks_per_us);
  std::printf("%s", trace::render_stats(trace::compute_stats(t)).c_str());
  return tools::kExitOk;
}

/// stats <file>: cmd_info's numbers without cmd_info's memory.  v2 binary
/// files are decoded chunk by chunk through trace::ChunkReader into a
/// StatsBuilder — O(chunk) resident instead of the whole trace — and torn
/// files are summarized to their recovered prefix with the salvage report
/// printed.  Text and v1 inputs (no chunk framing) take the batch loader.
int cmd_stats(const std::string& path) {
  std::vector<char> fallback;
  const trace::FileImage image(path, fallback);
  if (trace::binary_version(image.data(), image.size()) != trace::kFormatV2) {
    // Not a framed v2 file; load whole (text traces, v1, or malformed —
    // the loader produces the canonical diagnosis for the latter).
    return cmd_info(trace::load(path));
  }

  trace::ChunkReader reader(image.data(), image.size(), /*salvage=*/true);
  std::optional<trace::StatsBuilder> builder;
  std::vector<trace::Event> chunk;
  while (reader.next(chunk) == trace::ChunkReader::Status::kChunk) {
    if (!builder) builder.emplace(reader.info().num_procs);
    builder->add(chunk.data(), chunk.size());
  }
  if (!builder) builder.emplace(reader.info().num_procs);
  const trace::TraceInfo& info = reader.info();
  std::printf("name:          %s\n", info.name.c_str());
  std::printf("processors:    %u\n", info.num_procs);
  std::printf("ticks per us:  %.3f\n", info.ticks_per_us);
  std::printf("%s", trace::render_stats(builder->build()).c_str());
  if (!reader.report().complete)
    std::printf("salvage: %s\n", reader.report().describe().c_str());
  return tools::kExitOk;
}

int cmd_validate(const trace::Trace& t, trace::Tick slack) {
  trace::ValidateOptions opts;
  opts.sync_slack = slack;
  const auto violations = trace::validate(t, opts);
  if (violations.empty()) {
    std::printf("OK: %zu events, no causality violations\n", t.size());
    return tools::kExitOk;
  }
  std::printf("%zu violation(s):\n%s", violations.size(),
              trace::describe(violations).c_str());
  return tools::kExitBadTrace;
}

int cmd_dump(const trace::Trace& t, std::int64_t limit) {
  std::int64_t shown = 0;
  for (const auto& e : t) {
    std::printf("%12lld  p%-3u %-11s id=%-5u obj=%-4u payload=%lld\n",
                static_cast<long long>(e.time), unsigned(e.proc),
                trace::event_kind_name(e.kind), unsigned(e.id),
                unsigned(e.object), static_cast<long long>(e.payload));
    if (limit > 0 && ++shown >= limit) {
      std::printf("... (%zu events total)\n", t.size());
      break;
    }
  }
  return tools::kExitOk;
}

/// repair <in> <out>: salvage what a torn file still holds, repair causality
/// violations, report the manifest, and write the repaired trace.  The heavy
/// lifting is the pipeline's acquisition stage.
int cmd_repair(const support::Cli& cli, const std::string& in_path,
               const std::string& out_path) {
  core::PipelineOptions options;
  options.repair = cli.get_bool("aggressive", false)
                       ? core::RepairMode::kAggressive
                       : core::RepairMode::kConservative;
  options.sync_slack = cli.get_int("sync-slack", 0);
  const core::AnalysisPipeline pipeline(options);
  const core::AcquireOutcome outcome = pipeline.acquire_file(in_path);
  std::printf("%s", core::render_acquire(outcome).c_str());
  if (!outcome.ok) {
    std::fprintf(stderr, "%s%s\n", outcome.diagnosis.c_str(),
                 options.repair == core::RepairMode::kAggressive
                     ? ""
                     : " (try --aggressive)");
    return tools::kExitBadTrace;
  }
  trace::save(out_path, outcome.measured);
  std::printf("repaired trace written to %s (%zu events)\n", out_path.c_str(),
              outcome.measured.size());
  return tools::kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perturb;
  std::optional<support::Cli> parsed;
  try {
    parsed.emplace(argc, argv);
  } catch (const CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  }
  const support::Cli& cli = *parsed;
  const auto& args = cli.positional();
  if (args.size() < 2) return usage();
  const std::string& command = args[0];
  const tools::MetricsFlag metrics(cli);
  const int code = tools::run_tool([&]() -> int {
    // Undocumented regression hook: forces the internal-error path so the
    // test suite can assert a clean kExitInternal instead of an abort.
    if (command == "selftest-internal-error")
      throw std::runtime_error("forced internal error");
    if (command == "merge") {
      // args: merge <out> <in...> — merge time-ordered per-processor (or
      // per-buffer) traces into one; metadata comes from the first input.
      if (args.size() < 3) return usage();
      std::vector<trace::Trace> parts;
      std::uint32_t procs = 0;
      for (std::size_t i = 2; i < args.size(); ++i) {
        parts.push_back(trace::load(args[i]));
        procs = std::max(procs, parts.back().info().num_procs);
      }
      trace::TraceInfo info = parts.front().info();
      info.num_procs = procs;
      const auto merged = trace::Trace::merge(info, parts);
      trace::save(args[1], merged);
      std::printf("merged %zu traces into %s (%zu events)\n", parts.size(),
                  args[1].c_str(), merged.size());
      return tools::kExitOk;
    }
    if (command == "repair") {
      if (args.size() < 3) return usage();
      return cmd_repair(cli, args[1], args[2]);
    }
    if (command == "stats") return cmd_stats(args[1]);
    const trace::Trace t = trace::load(args[1]);
    if (command == "info") return cmd_info(t);
    if (command == "validate")
      return cmd_validate(t, cli.get_int("sync-slack", 0));
    if (command == "dump") return cmd_dump(t, cli.get_int("limit", 0));
    if (command == "critical-path") {
      std::printf("%s",
                  analysis::render_critical_path(analysis::critical_path(t))
                      .c_str());
      return tools::kExitOk;
    }
    if (command == "convert") {
      if (args.size() < 3) return usage();
      trace::save(args[2], t);
      std::printf("wrote %zu events to %s\n", t.size(), args[2].c_str());
      return tools::kExitOk;
    }
    return usage();
  });
  return metrics.finish(code);
}
