// daemon-mixed: server::PerturbServer in a forked child, driven from this
// process by one closed-loop phase and four open-loop phases at fixed rates.
//
// The open-loop load generator times every job from the moment it was due,
// not from when it was sent: a sender stalled behind a slow reply makes the
// jobs it owes late, and that lateness is part of their latency (and is
// reported on its own as loadgen.lateness_ms).
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <sstream>
#include <thread>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "experiments/experiments.hpp"
#include "loops/programs.hpp"
#include "pins.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "support/metrics.hpp"
#include "support/text.hpp"
#include "trace/io.hpp"
#include "workloads.hpp"

namespace ledger {

namespace {

using namespace perturb;

/// Client connections (and sender threads), at most --threads.
constexpr std::size_t kMaxConnections = 4;
constexpr std::size_t kChunkBytes = 64 * 1024;
/// A rate is sustainable when its p99 latency meets this limit, no job
/// failed and the generator did not fall further behind.
constexpr double kLatencyLimitMs = 10.0;

/// perturb-server's defaults, with two workers.
server::ServerConfig server_config(const std::string& socket_path) {
  server::ServerConfig config;
  config.socket_path = socket_path;
  config.workers = 2;
  const experiments::Setup setup;
  config.pipeline.overheads = experiments::overheads_for(
      experiments::make_plan(experiments::PlanKind::kFull, setup),
      setup.machine);
  config.pipeline.machine = setup.machine;
  config.pipeline.sync_slack = 130;
  return config;
}

/// One kind of job in the mix: its request and the reply detail it must get.
struct JobKind {
  server::JobRequest request;
  bool stream = false;
  std::string expect;
  double events = 0.0;
};

std::string binary_image(const trace::Trace& t) {
  std::ostringstream image;
  trace::write_binary(image, t);
  return image.str();
}

/// The daemon's reply summary for a successful job (its format is the
/// server's render_summary; the gate below checks the two agree).
std::string summary(const core::PipelineResult& result) {
  std::string out = support::strf(
      "acquire events=%zu salvaged=%d repaired=%d degraded=%d\n",
      result.acquire.measured.size(), int(result.acquire.salvaged),
      int(result.acquire.repaired), int(result.acquire.degraded));
  for (const auto& output : result.outputs)
    out += support::strf("analyzer=%s events=%zu span=%lld\n",
                         output.analyzer.c_str(), output.approx.size(),
                         static_cast<long long>(output.approx.span()));
  return out;
}

/// Inline lfk17 n=200 and chunked lfk3 n=2000 jobs, with their expected
/// replies computed by the in-process pipeline.
std::vector<JobKind> make_mix(const Options& options) {
  experiments::Setup setup;
  setup.seed = jitter_seed(options.seed);
  const server::ServerConfig config = server_config("");
  core::AnalysisPipeline pipeline(config.pipeline);
  pipeline.add(core::AnalyzerKind::kTimeBased)
      .add(core::AnalyzerKind::kEventBased);
  std::vector<JobKind> kinds;
  for (const auto& [loop, n] : {std::pair{17, 200}, std::pair{3, 2000}}) {
    const trace::Trace measured = sim::simulate(
        setup.machine, loops::make_concurrent_ir(loop, n),
        experiments::make_plan(experiments::PlanKind::kFull, setup),
        support::strf("lfk%d-con/measured", loop));
    JobKind kind;
    kind.request.payload = binary_image(measured);
    kind.stream = loop == 3;
    const core::PipelineResult result = pipeline.run(measured);
    gate(result.acquire.ok, "mix trace does not analyze in-process");
    kind.expect = summary(result);
    kind.events = static_cast<double>(measured.size());
    kinds.push_back(std::move(kind));
  }
  return kinds;
}

/// Job k of a sender: every fourth one is the chunked job.
std::size_t kind_of(std::size_t k) { return k % 4 == 3 ? 1 : 0; }

/// Server-side numbers the daemon child reads from its metrics registry.
struct DaemonStats {
  std::uint64_t queue_p50_ns = 0;
  std::uint64_t queue_p99_ns = 0;
  std::uint64_t service_p50_ns = 0;
  std::uint64_t service_p99_ns = 0;
  std::uint64_t index_mean_ns = 0;
  std::uint64_t analyses_mean_ns = 0;
  std::uint64_t stream_chunks = 0;
  std::uint64_t streams = 0;
};

DaemonStats registry_stats() {
  const support::MetricsSnapshot snap = support::Metrics::snapshot();
  const auto hist = [&](const char* name) {
    const auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? support::HistogramSnapshot{}
                                       : it->second;
  };
  const auto mean = [](const support::HistogramSnapshot& h) {
    return h.count == 0 ? std::uint64_t{0} : h.sum / h.count;
  };
  const auto counter = [&](const char* name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? std::uint64_t{0} : it->second;
  };
  DaemonStats s;
  const auto queue = hist("server.queue_wait.ns");
  const auto service = hist("server.service.ns");
  s.queue_p50_ns = support::histogram_quantile(queue, 0.50);
  s.queue_p99_ns = support::histogram_quantile(queue, 0.99);
  s.service_p50_ns = support::histogram_quantile(service, 0.50);
  s.service_p99_ns = support::histogram_quantile(service, 0.99);
  s.index_mean_ns = mean(hist("pipeline.phase.index.ns"));
  s.analyses_mean_ns = mean(hist("pipeline.phase.analyses.ns"));
  s.stream_chunks = counter("server.streams.chunks");
  s.streams = counter("server.streams.opened");
  return s;
}

/// The daemon under test, in a forked child.  The child blocks SIGTERM,
/// serves until it receives one, drains, and sends its registry numbers
/// back through a pipe.  Destroying a running Daemon stops it.
class Daemon {
 public:
  Daemon(const server::ServerConfig& config, bool metrics) {
    std::fflush(stdout);
    std::fflush(stderr);
    int fds[2];
    gate(::pipe(fds) == 0, "pipe failed");
    pid_ = ::fork();
    gate(pid_ >= 0, "fork failed");
    if (pid_ == 0) {
      die_with_parent();
      ::close(fds[0]);
      ::_exit(serve(config, metrics, fds[1]));
    }
    ::close(fds[1]);
    stats_fd_ = fds[0];
    if (!wait_for_socket(config.socket_path)) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      ::close(stats_fd_);
      pid_ = -1;
      gate(false, "daemon socket never appeared at " + config.socket_path);
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      try {
        stop();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "daemon stop failed: %s\n", e.what());
      }
    }
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Drains the daemon and returns its registry numbers and peak RSS.
  DaemonStats stop(std::int64_t* rss_kb = nullptr) {
    ::kill(pid_, SIGTERM);
    DaemonStats stats;
    const ssize_t got = ::read(stats_fd_, &stats, sizeof(stats));
    ::close(stats_fd_);
    int status = 0;
    struct rusage usage{};
    ::wait4(pid_, &status, 0, &usage);
    pid_ = -1;
    gate(got == sizeof(stats) && WIFEXITED(status) && WEXITSTATUS(status) == 0,
         "daemon did not drain cleanly");
    if (rss_kb != nullptr) *rss_kb = static_cast<std::int64_t>(usage.ru_maxrss);
    return stats;
  }

 private:
  static int serve(const server::ServerConfig& config, bool metrics, int fd) {
    try {
      sigset_t set;
      sigemptyset(&set);
      sigaddset(&set, SIGTERM);
      ::pthread_sigmask(SIG_BLOCK, &set, nullptr);
      support::Metrics::reset();
      support::Metrics::enable(metrics);
      server::PerturbServer daemon(config);
      daemon.start();
      int sig = 0;
      ::sigwait(&set, &sig);
      daemon.shutdown();
      const DaemonStats stats = registry_stats();
      return ::write(fd, &stats, sizeof(stats)) == sizeof(stats) ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "daemon failed: %s\n", e.what());
      return 1;
    }
  }

  static bool wait_for_socket(const std::string& path) {
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (Clock::now() < deadline) {
      try {
        server::Client probe(path);
        return true;
      } catch (const trace::IoError&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return false;
  }

  pid_t pid_ = -1;
  int stats_fd_ = -1;
};

/// One completed job as the client saw it.
struct Sample {
  double due = 0.0;   ///< seconds since the phase began
  double sent = 0.0;
  double done = 0.0;
  double events = 0.0;
  bool ok = false;
};

server::JobReply call(server::Client& client, const JobKind& kind,
                      server::JobRequest& request, std::uint64_t id) {
  request.job_id = id;
  return kind.stream ? client.call_stream(request, kChunkBytes)
                     : client.call(request);
}

/// Runs one sender per connection for `seconds`.  rate == 0 is a closed
/// loop (each sender sends its next job when the previous reply arrives);
/// otherwise sender c of n sends its job k at (c + n * k) / rate, whether or
/// not its previous reply has arrived by then.
std::vector<Sample> drive(const std::string& socket_path,
                          const std::vector<JobKind>& kinds,
                          std::size_t connections, double rate, double seconds,
                          Tracer* tracer) {
  std::vector<std::vector<Sample>> per_sender(connections);
  std::vector<std::string> errors(connections);
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::int32_t> next_job{0};
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  const auto since_t0 = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  const auto send = [&](std::size_t c) {
    server::Client client(socket_path);
    // Each sender owns its requests, so no payload is copied per job.
    std::vector<server::JobRequest> requests;
    for (const JobKind& kind : kinds) requests.push_back(kind.request);
    std::this_thread::sleep_until(t0);
    for (std::size_t k = 0;; ++k) {
      Sample sample;
      if (rate > 0.0) {
        sample.due = static_cast<double>(c + connections * k) / rate;
        if (sample.due >= seconds) break;
        std::this_thread::sleep_until(at(sample.due));
      } else {
        sample.due = since_t0();
        if (sample.due >= seconds) break;
      }
      const std::size_t which = kind_of(k);
      const JobKind& kind = kinds[which];
      const std::int32_t job = next_job.fetch_add(1);
      const Span job_span(tracer, "job", job, Span::kInherit,
                          static_cast<std::uint32_t>(c));
      sample.sent = since_t0();
      server::JobReply reply;
      {
        const Span s(tracer, "server.client_call", job);
        reply = call(client, kind, requests[which], next_id.fetch_add(1));
      }
      sample.done = since_t0();
      sample.events = kind.events;
      sample.ok = reply.status == server::JobStatus::kOk &&
                  reply.detail == kind.expect;
      per_sender[c].push_back(sample);
    }
  };
  {
    std::vector<std::jthread> senders;
    for (std::size_t c = 0; c < connections; ++c)
      senders.emplace_back([&, c] {
        try {
          send(c);
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
      });
  }
  for (const std::string& e : errors) gate(e.empty(), "sender failed: " + e);
  std::vector<Sample> all;
  for (const auto& v : per_sender) all.insert(all.end(), v.begin(), v.end());
  return all;
}

struct Phase {
  double rate = 0.0;
  std::vector<double> latency_ms;  ///< from the due time
  std::vector<double> lateness_ms;
  std::vector<double> call_ms;  ///< from the send
  std::size_t failed = 0;
  bool lateness_grows = false;
};

Phase summarize(double rate, std::vector<Sample> samples, Report& report) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.due < b.due; });
  Phase p;
  p.rate = rate;
  for (const Sample& s : samples) {
    p.latency_ms.push_back((s.done - s.due) * 1e3);
    p.lateness_ms.push_back((s.sent - s.due) * 1e3);
    p.call_ms.push_back((s.done - s.sent) * 1e3);
    if (!s.ok) ++p.failed;
  }
  report.attempted += samples.size();
  report.failed += p.failed;
  // Growing backlog: the last quarter of jobs (by due time) starts later
  // behind schedule than the first quarter did.
  const auto q = static_cast<std::ptrdiff_t>(p.lateness_ms.size() / 4);
  if (q > 0) {
    const std::vector<double> first(p.lateness_ms.begin(),
                                    p.lateness_ms.begin() + q);
    const std::vector<double> last(p.lateness_ms.end() - q,
                                   p.lateness_ms.end());
    p.lateness_grows = median(last) - median(first) > 1.0;
  }
  return p;
}

}  // namespace

void run_daemon(const Options& options, Report& report) {
  const std::string socket_path = options.work_dir + "/daemon.sock";
  const std::size_t connections = std::min(kMaxConnections, options.threads);
  const server::ServerConfig config = server_config(socket_path);
  std::vector<JobKind> kinds;
  std::unique_ptr<Daemon> daemon;
  report_setup(options, [&] {
    daemon.reset();
    kinds = make_mix(options);
    daemon = std::make_unique<Daemon>(config, false);
  }, report);
  const ChildResult null_child = run_in_child([] { return Payload{}; });

  // Gate: a canonical reply of each kind equals the in-process pipeline's.
  {
    server::Client client(socket_path);
    for (const JobKind& kind : kinds) {
      server::JobRequest request = kind.request;
      const server::JobReply reply = call(client, kind, request, 1);
      gate(reply.status == server::JobStatus::kOk,
           std::string("canonical job failed: ") + reply.detail);
      gate(reply.detail == kind.expect,
           "daemon reply differs from the in-process pipeline:\n" +
               reply.detail + "vs\n" + kind.expect);
    }
  }

  // The closed loop gets 40% of the time (capacity is the noisiest number),
  // each open-loop rate 15%.
  const double closed_s = 0.4 * options.seconds;
  const double phase_s = 0.15 * options.seconds;
  const std::vector<Sample> closed =
      drive(socket_path, kinds, connections, 0.0, closed_s, nullptr);
  Phase capacity = summarize(0.0, closed, report);
  double closed_events = 0.0;
  for (const Sample& s : closed) closed_events += s.events;
  std::vector<Phase> phases;
  for (const double rate : kDaemonRates)
    phases.push_back(summarize(
        rate,
        drive(socket_path, kinds, connections, rate, phase_s, nullptr),
        report));
  std::int64_t rss_kb = 0;
  daemon->stop(&rss_kb);
  daemon.reset();

  const Phase& at30 = phases[0];
  const Phase& at60 = phases[1];
  report.e2e("job_p50_s", median(at30.latency_ms) * 1e-3, "s");
  // p98: the at30 phase holds about 900 jobs.
  report.layer("job_tail_s", quantile(at30.latency_ms, 0.98) * 1e-3, "s");
  report.e2e("events_per_s", closed_events / closed_s, "events/s");
  report.e2e("peak_rss_mb",
             static_cast<double>(rss_kb - null_child.rss_kb) / 1024.0, "MiB");
  if (!options.trace) return;

  double sustainable = 0.0;
  for (const Phase& p : phases)
    if (p.failed == 0 && !p.lateness_grows &&
        quantile(p.latency_ms, 0.99) <= kLatencyLimitMs)
      sustainable = std::max(sustainable, p.rate);
  report.layer("daemon_jobs_per_s",
               static_cast<double>(capacity.latency_ms.size()) / closed_s,
               "jobs/s");
  report.layer("latency_p50_ms.at30", median(at30.latency_ms), "ms");
  report.layer("latency_p99_ms.at30", quantile(at30.latency_ms, 0.99), "ms");
  report.layer("latency_p50_ms.at60", median(at60.latency_ms), "ms");
  report.layer("latency_p99_ms.at60", quantile(at60.latency_ms, 0.99), "ms");
  report.layer("sustainable_jobs_per_s", sustainable, "jobs/s");
  report.layer("loadgen.lateness_ms.p99", quantile(at60.lateness_ms, 0.99),
               "ms");

  // Traced run: the at60 rate again, against a daemon with its metrics
  // registry on; client calls get spans, the registry gives the server side.
  Tracer tracer;
  Daemon traced(config, true);
  const Phase again = summarize(
      at60.rate,
      drive(socket_path, kinds, connections, at60.rate, phase_s, &tracer),
      report);
  const DaemonStats stats = traced.stop();
  // A traced job spans send to reply, so it compares with the untraced
  // jobs' time from send, not from their due time.
  report_tracing(tracer, median(at60.call_ms) * 1e-3, options, report);
  report.layer("server.client_call_ms.p50", median(again.call_ms), "ms");
  report.layer("server.queue_wait_ms.p50",
               static_cast<double>(stats.queue_p50_ns) * 1e-6, "ms");
  report.layer("server.queue_wait_ms.p99",
               static_cast<double>(stats.queue_p99_ns) * 1e-6, "ms");
  report.layer("server.service_ms.p50",
               static_cast<double>(stats.service_p50_ns) * 1e-6, "ms");
  report.layer("server.service_ms.p99",
               static_cast<double>(stats.service_p99_ns) * 1e-6, "ms");
  report.layer("server.pipeline_index_us",
               static_cast<double>(stats.index_mean_ns) * 1e-3, "us");
  report.layer("server.pipeline_analyses_us",
               static_cast<double>(stats.analyses_mean_ns) * 1e-3, "us");
  report.layer("server.stream_chunks",
               stats.streams == 0 ? 0.0
                                  : static_cast<double>(stats.stream_chunks) /
                                        static_cast<double>(stats.streams),
               "count");
}

}  // namespace ledger
