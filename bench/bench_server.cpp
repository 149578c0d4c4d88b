// bench_server — robustness economics of the perturbation-analysis daemon.
//
// Overload handling is only worth its complexity if it is cheap.  This
// harness starts an in-process daemon and measures two machine-relative
// ratios (absolute jobs/sec vary by host; the ratios do not):
//
//   * overload_throughput_retention: completed-job throughput when the
//     offered load is ~4x capacity, divided by throughput at capacity.
//     A server that sheds correctly keeps serving near its capacity rate
//     under overload (retention ~1.0); one that thrashes or queues without
//     bound collapses.  Asserted >= 0.60.
//
//   * reject_fastpath: structured rejections per second from a saturated
//     server, divided by the capacity job rate.  Shedding must cost far
//     less than service — the whole point of admission control is that
//     saying no is cheap.  Asserted >= 2.0 (rejections at least twice as
//     fast as the jobs they displace).
//
// Each phase runs for a fixed wall-clock window (--secs) so the rates are
// comparable: under overload most calls are rejected instantly, and a
// count-based batch would end before the workers completed anything.
// The ctest smoke run shrinks --secs and the workload trace (--n).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "experiments/experiments.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/text.hpp"
#include "trace/io.hpp"

namespace {

using namespace perturb;
using Clock = std::chrono::steady_clock;

/// Floors for the two ratios (see the file comment).
constexpr double kMinRetention = 0.60;
constexpr double kMinRejectFastpath = 2.0;

struct LoadResult {
  std::size_t ok = 0;
  std::size_t rejected = 0;
  double wall_s = 0.0;

  double ok_per_sec() const { return wall_s > 0 ? double(ok) / wall_s : 0.0; }
};

/// Hammers the daemon with `clients` closed-loop senders for `secs` of wall
/// clock; every sender keeps submitting until the window closes.  A sender
/// that is shed backs off for `backoff_us` before retrying — well-behaved
/// overload clients honor REJECTED_OVERLOAD rather than hammering the
/// admission path, and the retention ratio measures shedding quality under
/// that discipline (an unthrottled rejection storm mostly measures how many
/// cores the rejection handling can steal from the workers).
LoadResult drive(const std::string& socket_path, const std::string& payload,
                 std::size_t clients, double secs,
                 std::uint64_t backoff_us = 0) {
  std::vector<std::thread> senders;
  std::vector<LoadResult> partial(clients);
  std::atomic<std::uint64_t> next_id{1};
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::microseconds(static_cast<std::int64_t>(1e6 * secs));
  for (std::size_t c = 0; c < clients; ++c)
    senders.emplace_back([&, c] {
      server::Client client(socket_path);
      server::JobRequest request;
      request.analyzers = server::kMaskTimeBased | server::kMaskEventBased;
      request.payload = payload;
      while (Clock::now() < deadline) {
        request.job_id = next_id.fetch_add(1);
        const server::JobReply reply = client.call(request);
        if (reply.status == server::JobStatus::kOk) partial[c].ok++;
        if (reply.status == server::JobStatus::kRejectedOverload) {
          partial[c].rejected++;
          if (backoff_us > 0)
            std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
        }
      }
    });
  for (auto& sender : senders) sender.join();
  LoadResult total;
  total.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  for (const auto& p : partial) {
    total.ok += p.ok;
    total.rejected += p.rejected;
  }
  return total;
}

server::ServerConfig daemon_config(const std::string& socket_path,
                                   std::size_t workers,
                                   std::size_t queue_depth) {
  server::ServerConfig config;
  config.socket_path = socket_path;
  config.workers = workers;
  config.queue_depth = queue_depth;
  experiments::Setup setup;
  config.pipeline.overheads = experiments::overheads_for(
      experiments::make_plan(experiments::PlanKind::kFull, setup),
      setup.machine);
  config.pipeline.machine = setup.machine;
  config.pipeline.sync_slack = 130;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const support::Cli cli(argc, argv);
  const std::size_t workers =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   cli.get_int("workers", 2)));
  const double secs = cli.get_double("secs", 2.0);
  const std::int64_t n = cli.get_int("n", 200);
  const auto slow_samples =
      static_cast<std::uint32_t>(cli.get_int("slow-samples", 50000));
  std::printf(
      "== BENCH server ==\ndaemon throughput at capacity vs under overload, "
      "and the cost of a structured rejection\n\n");

  experiments::Setup setup;
  const auto run = experiments::run_concurrent_experiment(
      17, n, setup, experiments::PlanKind::kFull);
  std::ostringstream image;
  trace::write_binary(image, run.measured);
  const std::string payload = image.str();
  const std::string socket_base =
      "/tmp/perturb_bench_server_" + std::to_string(::getpid());

  // Capacity: one closed-loop client per worker keeps every worker busy
  // without ever filling the (deep) queue — nothing is shed.
  double capacity_per_sec = 0.0;
  {
    const std::string socket_path = socket_base + ".cap.sock";
    server::PerturbServer daemon(daemon_config(socket_path, workers, 1024));
    daemon.start();
    drive(socket_path, payload, workers, secs / 4);  // warmup
    const LoadResult r = drive(socket_path, payload, workers, secs);
    daemon.shutdown();
    PERTURB_CHECK_MSG(r.rejected == 0,
                      "capacity run shed jobs; queue depth miscalibrated");
    PERTURB_CHECK_MSG(r.ok > 0, "capacity run completed nothing");
    capacity_per_sec = r.ok_per_sec();
    std::printf("capacity       %7.0f ok/s (%zu jobs, %zu workers)\n",
                capacity_per_sec, r.ok, workers);
  }

  // Overload: 4x the clients against a queue of depth `workers`.  Most
  // arrivals are shed; the completed-job rate must hold near capacity.
  double overload_per_sec = 0.0;
  std::size_t overload_rejected = 0;
  {
    const std::string socket_path = socket_base + ".over.sock";
    server::PerturbServer daemon(
        daemon_config(socket_path, workers, workers));
    daemon.start();
    const LoadResult r = drive(socket_path, payload, 4 * workers, secs,
                               /*backoff_us=*/2000);
    daemon.shutdown();
    overload_per_sec = r.ok_per_sec();
    overload_rejected = r.rejected;
    std::printf("overload       %7.0f ok/s (%zu ok, %zu rejected)\n",
                overload_per_sec, r.ok, r.rejected);
  }
  PERTURB_CHECK_MSG(overload_rejected > 0,
                    "overload run shed nothing; offered load miscalibrated");

  // Rejection fast path: saturate a single worker and its one queue slot
  // with jobs made slow via the Monte-Carlo knob (tens of seconds of
  // sampling), then time pure rejections for a window that ends long
  // before the slow jobs do.
  double rejects_per_sec = 0.0;
  {
    const std::string socket_path = socket_base + ".rej.sock";
    server::ServerConfig config = daemon_config(socket_path, 1, 1);
    config.drain_timeout_ms = 200;  // shed the queued slow job at shutdown
    server::PerturbServer daemon(std::move(config));
    daemon.start();
    std::vector<std::thread> holders;
    for (int k = 0; k < 2; ++k) {
      holders.emplace_back([&, k] {
        server::Client holder(socket_path);
        server::JobRequest slow;
        slow.job_id = 900000 + static_cast<std::uint64_t>(k);
        slow.analyzers = server::kMaskLikely;
        slow.likely_samples = slow_samples;
        slow.payload = payload;
        (void)holder.call(slow);  // kOk or kCancelledDrain; either is fine
      });
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    server::Client prober(socket_path);
    server::JobRequest probe;
    probe.analyzers = server::kMaskTimeBased;
    probe.payload = payload;
    std::size_t sent = 0;
    std::size_t rejected = 0;
    // The same window length as the capacity phase, so both rates of the
    // ratio average over an equal span of host noise.
    const auto start = Clock::now();
    const auto deadline = start + std::chrono::microseconds(
                                      static_cast<std::int64_t>(1e6 * secs));
    while (Clock::now() < deadline) {
      probe.job_id = 1 + sent++;
      if (prober.call(probe).status == server::JobStatus::kRejectedOverload)
        rejected++;
    }
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    daemon.shutdown();
    for (auto& holder : holders) holder.join();
    PERTURB_CHECK_MSG(rejected == sent,
                      "saturation leaked: a probe was admitted while the "
                      "slow jobs held the server");
    rejects_per_sec = wall_s > 0 ? double(rejected) / wall_s : 0.0;
    std::printf("reject path    %7.0f rejections/s (%zu probes)\n",
                rejects_per_sec, sent);
  }

  const double retention =
      capacity_per_sec > 0 ? overload_per_sec / capacity_per_sec : 0.0;
  const double fastpath =
      capacity_per_sec > 0 ? rejects_per_sec / capacity_per_sec : 0.0;
  std::printf("retention      %7.2f   reject_fastpath %7.2f\n", retention,
              fastpath);

  PERTURB_CHECK_MSG(
      retention >= kMinRetention,
      support::strf("overload throughput retention %.2f < %.2f", retention,
                    kMinRetention));
  PERTURB_CHECK_MSG(
      fastpath >= kMinRejectFastpath,
      support::strf("reject fast path %.2fx < %.1fx the capacity job rate",
                    fastpath, kMinRejectFastpath));
  return 0;
}
