// Shared pieces of the performance ledger: run options, the metric report,
// job loops with percentile summaries, span recording for the traced run,
// fork-per-job peak-RSS probes, and the in-process calibration kernel.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace ledger {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

struct Options {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10.0;  ///< length of the untraced measuring loop
  bool trace = false;     ///< also run the traced jobs; report per-layer
  bool smoke = false;     ///< shrunk inputs and job counts
  std::size_t threads = 4;
  std::string work_dir;   ///< inputs, sockets and span files
};

/// Every metric one run measured, plus the correctness tallies.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
};

/// Thrown when a correctness gate fails; the run exits non-zero without a
/// result line.
struct GateFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};
void gate(bool ok, const std::string& what);

// ---- statistics -------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double quantile(std::vector<double> samples, double q);
double median(const std::vector<double>& samples);

/// Runs `job` back to back until `seconds` have passed and at least
/// `min_jobs` ran, and returns each job's wall time.  `job` times itself, so
/// that checking its output (it sets `ok`) stays outside the measurement.
std::vector<double> run_loop(double seconds, std::size_t min_jobs,
                             const std::function<double(bool& ok)>& job,
                             Report& report);

/// Reports job_p50_s (end to end) and job_tail_s (per layer); `tail_q` is
/// the workload's tail percentile, fixed so that at least ten samples lie
/// beyond it.  The tail moves by more than any usable regression bound
/// between runs on a shared host, so it carries no bound.
void report_job_times(const std::vector<double>& secs, double tail_q,
                      Report& report);

/// Runs `setup` five times (once with --smoke) and reports the median as
/// setup_s; the last run's state is what the workload uses.
void report_setup(const Options& options, const std::function<void()>& setup,
                  Report& report);

// ---- tracing ----------------------------------------------------------------

/// In-memory span store for the traced run.  Spans carry a name, start, end,
/// parent span and job id; they are written as Chrome trace events once the
/// run ends.  Safe to record from several threads.
class Tracer {
 public:
  Tracer() { records_.reserve(1u << 16); }

  struct Record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::int32_t job;
    std::uint32_t tid;
  };

  std::int32_t open(const char* name, std::int32_t parent, std::int32_t job,
                    std::uint32_t tid);
  void close(std::int32_t id);

  /// Summed self time (duration minus child durations) per span name, ns.
  std::map<std::string, std::int64_t> self_ns() const;

  /// Share of the "job" spans' wall time spent inside a child span.
  double coverage() const;
  /// Wall times of the "job" spans, seconds.
  std::vector<double> job_seconds() const;

  bool write_chrome(const std::string& path) const;

 private:
  std::vector<Record> records() const;

  mutable std::mutex mutex_;
  std::vector<Record> records_;
};

/// RAII span; records nothing when `tracer` is null, so one code path serves
/// the traced and the untraced decomposition.  The parent defaults to the
/// innermost open span on this thread; worker threads pass the span that
/// fanned them out.
class Span {
 public:
  static constexpr std::int32_t kInherit = -2;

  Span(Tracer* tracer, const char* name, std::int32_t job,
       std::int32_t parent = kInherit, std::uint32_t tid = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::int32_t id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  std::int32_t id_ = -1;
  std::int32_t saved_ = -1;
};

/// Runs traced jobs (ids 0, 1, ...), each right after an untraced one, until
/// at least five pairs ran and a second passed (two pairs with --smoke), and
/// returns the untraced jobs' times.  Pairing keeps host drift out of the
/// tracing overhead; the one-second floor gives short jobs a median that
/// host noise does not swamp.
std::vector<double> run_traced(const Options& options,
                               const std::function<double(bool& ok)>& untraced,
                               const std::function<void(std::int32_t)>& traced,
                               Report& report);

/// Reports ledger.coverage and ledger.tracing_overhead, and writes the span
/// file.  `untraced_median` is the median time of the untraced jobs run
/// alongside the traced ones.
void report_tracing(const Tracer& tracer, double untraced_median,
                    const Options& options, Report& report);

/// Self time of the named spans, ns, per one of `events` events.
double ns_per_event(const std::map<std::string, std::int64_t>& self_ns,
                    const std::string& name, double events);

// ---- memory and calibration -------------------------------------------------

/// Values a forked child sends back to its parent.
using Payload = std::array<std::uint64_t, 4>;

/// What a forked child reports back: its peak RSS and its payload.
struct ChildResult {
  std::int64_t rss_kb = 0;
  Payload out{};
};

/// In a forked child: make sure the child cannot outlive this process, even
/// when the benchmark is killed.
void die_with_parent();

/// Runs `work` in a forked child and returns the child's ru_maxrss and the
/// payload `work` returned.  Throws when the child fails.  The parent must
/// hold no live thread pool at the fork.
ChildResult run_in_child(const std::function<Payload()>& work);

/// Peak RSS of one job in MiB, net of a child that does nothing (the
/// footprint every forked child inherits).  `job` runs in its own child and
/// returns its output digest in out[0], which is returned through `digest`.
double peak_rss_mb(const std::function<std::uint64_t()>& job,
                   std::uint64_t& digest);

/// Median ns per iteration of a fixed integer kernel, measured in this
/// process: a host slowdown moves it, a program slowdown does not.
double calibration_ns();

// ---- output checks ----------------------------------------------------------

/// FNV-1a basis and step, for digests of job outputs.
inline constexpr std::uint64_t kDigestBasis = 14695981039346656037ull;
std::uint64_t mix(std::uint64_t h, std::uint64_t v);

bool same_events(const perturb::trace::Trace& a,
                 const perturb::trace::Trace& b);

/// Seed of the probe-cost jitter: the default workload seed 7 keeps the
/// repository's standard jitter seed 1991.
std::uint64_t jitter_seed(std::uint64_t seed);

}  // namespace ledger
