#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "support/fsio.hpp"
#include "support/text.hpp"

namespace ledger {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Innermost open span of this thread (-1: none).
thread_local std::int32_t tl_open_span = -1;

/// Keeps the calibration kernel's result observable.
std::uint64_t g_calibration_sink = 0;

}  // namespace

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void gate(bool ok, const std::string& what) {
  if (!ok) throw GateFailure(what);
}

// ---- statistics -------------------------------------------------------------

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

std::vector<double> run_loop(double seconds, std::size_t min_jobs,
                             const std::function<double(bool& ok)>& job,
                             Report& report) {
  std::vector<double> secs;
  const auto start = Clock::now();
  do {
    bool ok = true;
    secs.push_back(job(ok));
    ++report.attempted;
    if (!ok) ++report.failed;
  } while (secs.size() < min_jobs || seconds_since(start) < seconds);
  return secs;
}

void report_job_times(const std::vector<double>& secs, double tail_q,
                      Report& report) {
  report.e2e("job_p50_s", median(secs), "s");
  report.layer("job_tail_s", quantile(secs, tail_q), "s");
}

void report_setup(const Options& options, const std::function<void()>& setup,
                  Report& report) {
  std::vector<double> secs;
  for (int r = 0; r < (options.smoke ? 1 : 5); ++r) {
    const auto start = Clock::now();
    setup();
    secs.push_back(seconds_since(start));
  }
  report.e2e("setup_s", median(secs), "s");
}

// ---- tracing ----------------------------------------------------------------

std::int32_t Tracer::open(const char* name, std::int32_t parent,
                          std::int32_t job, std::uint32_t tid) {
  const std::int64_t start = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back({name, start, -1, parent, job, tid});
  return static_cast<std::int32_t>(records_.size() - 1);
}

void Tracer::close(std::int32_t id) {
  const std::int64_t end = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  records_[static_cast<std::size_t>(id)].end_ns = end;
}

std::vector<Tracer::Record> Tracer::records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

namespace {

/// Duration of every span minus the durations of its children.
std::vector<std::int64_t> self_times(const std::vector<Tracer::Record>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].end_ns - spans[i].start_ns;
  for (const Tracer::Record& s : spans)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
  for (auto& t : self) t = std::max<std::int64_t>(t, 0);
  return self;
}

}  // namespace

std::map<std::string, std::int64_t> Tracer::self_ns() const {
  const std::vector<Record> spans = records();
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

double Tracer::coverage() const {
  const std::vector<Record> spans = records();
  const std::vector<std::int64_t> self = self_times(spans);
  double wall = 0.0;
  double inside = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::string(spans[i].name) != "job") continue;
    const auto dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    wall += dur;
    inside += dur - static_cast<double>(self[i]);
  }
  return wall > 0.0 ? inside / wall : 0.0;
}

std::vector<double> Tracer::job_seconds() const {
  std::vector<double> out;
  for (const Record& s : records())
    if (std::string(s.name) == "job")
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  const std::vector<Record> spans = records();
  std::int64_t origin = 0;
  for (const Record& s : spans)
    if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
  std::string json = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Record& s = spans[i];
    json += perturb::support::strf(
        "%s{\"name\": \"%s\", \"cat\": \"ledger\", \"ph\": \"X\", "
        "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
        "\"args\": {\"span\": %zu, \"parent\": %d, \"job\": %d}}",
        i == 0 ? "" : ",\n", s.name,
        static_cast<double>(s.start_ns - origin) * 1e-3,
        static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.tid, i,
        s.parent, s.job);
  }
  json += "\n]}\n";
  std::string error;
  return perturb::support::write_file_atomic(path, json, &error);
}

Span::Span(Tracer* tracer, const char* name, std::int32_t job,
           std::int32_t parent, std::uint32_t tid)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->open(name, parent == kInherit ? tl_open_span : parent, job,
                      tid);
  saved_ = tl_open_span;
  tl_open_span = id_;
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  tracer_->close(id_);
  tl_open_span = saved_;
}

std::vector<double> run_traced(const Options& options,
                               const std::function<double(bool& ok)>& untraced,
                               const std::function<void(std::int32_t)>& traced,
                               Report& report) {
  const std::size_t min_pairs = options.smoke ? 2 : 5;
  const double min_seconds = options.smoke ? 0.0 : 1.0;
  std::vector<double> secs;
  const auto start = Clock::now();
  while (secs.size() < min_pairs || seconds_since(start) < min_seconds) {
    bool ok = true;
    secs.push_back(untraced(ok));
    ++report.attempted;
    if (!ok) ++report.failed;
    traced(static_cast<std::int32_t>(secs.size() - 1));
  }
  return secs;
}

void report_tracing(const Tracer& tracer, double untraced_median,
                    const Options& options, Report& report) {
  report.layer("ledger.coverage", tracer.coverage(), "ratio");
  report.layer("ledger.tracing_overhead",
               median(tracer.job_seconds()) / untraced_median - 1.0, "ratio");
  const std::string path =
      options.work_dir + "/spans_" + options.workload + ".json";
  gate(tracer.write_chrome(path), "cannot write " + path);
  std::fprintf(stderr, "spans written to %s\n", path.c_str());
}

double ns_per_event(const std::map<std::string, std::int64_t>& self_ns,
                    const std::string& name, double events) {
  const auto it = self_ns.find(name);
  if (it == self_ns.end() || events <= 0.0) return 0.0;
  return static_cast<double>(it->second) / events;
}

// ---- memory and calibration -------------------------------------------------

void die_with_parent() {
#ifdef __linux__
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
}

ChildResult run_in_child(const std::function<Payload()>& work) {
  std::fflush(stdout);
  std::fflush(stderr);
  int fds[2];
  gate(::pipe(fds) == 0, "pipe failed");
  const pid_t pid = ::fork();
  gate(pid >= 0, "fork failed");
  if (pid == 0) {
    die_with_parent();
    ::close(fds[0]);
    ChildResult result;
    int code = 0;
    try {
      result.out = work();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "child failed: %s\n", e.what());
      code = 1;
    }
    struct rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    result.rss_kb = static_cast<std::int64_t>(usage.ru_maxrss);
    if (::write(fds[1], &result, sizeof(result)) != sizeof(result)) code = 1;
    ::_exit(code);
  }
  ::close(fds[1]);
  ChildResult result;
  const ssize_t got = ::read(fds[0], &result, sizeof(result));
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  gate(got == sizeof(result) && WIFEXITED(status) && WEXITSTATUS(status) == 0,
       "forked child failed");
  return result;
}

double peak_rss_mb(const std::function<std::uint64_t()>& job,
                   std::uint64_t& digest_out) {
  const ChildResult null_child = run_in_child([] { return Payload{}; });
  const ChildResult job_child =
      run_in_child([&] { return Payload{job(), 0, 0, 0}; });
  digest_out = job_child.out[0];
  return static_cast<double>(job_child.rss_kb - null_child.rss_kb) / 1024.0;
}

double calibration_ns() {
  constexpr std::size_t kSize = 1u << 16;
  std::vector<std::uint32_t> values(kSize);
  std::vector<double> per_item;
  std::uint32_t x = 2463534242u;
  for (int rep = 0; rep < 9; ++rep) {
    const auto start = Clock::now();
    for (auto& v : values) {
      x ^= x << 13;
      x ^= x >> 17;
      x ^= x << 5;
      v = x;
    }
    std::sort(values.begin(), values.end());
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kSize; i += 7) sum += values[i];
    g_calibration_sink += sum;
    per_item.push_back(seconds_since(start) * 1e9 / static_cast<double>(kSize));
  }
  return median(per_item);
}

// ---- output checks ----------------------------------------------------------

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

bool same_events(const perturb::trace::Trace& a,
                 const perturb::trace::Trace& b) {
  return a.events() == b.events();
}

std::uint64_t jitter_seed(std::uint64_t seed) { return 1984 + seed; }

}  // namespace ledger
