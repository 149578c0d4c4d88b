// Descriptive statistics over traces: event-kind counts, per-processor
// activity, and pairwise trace comparison used to score approximations.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace perturb::trace {

struct TraceStats {
  std::size_t total_events = 0;
  std::array<std::size_t, kNumEventKinds> kind_counts{};
  std::vector<std::size_t> per_proc_events;  ///< indexed by processor
  Tick span = 0;
  Tick total_time = 0;
};

TraceStats compute_stats(const Trace& trace);

/// Incremental TraceStats accumulator for streaming loads: feed events in
/// trace order as chunks decode, then build().  Produces exactly what
/// compute_stats reports over the same events — including the edge rules
/// (span 0 when empty, first-wins ProgramBegin, last-wins ProgramEnd,
/// total_time falling back to span without both markers, out-of-range
/// processors counted in totals but not per-proc).
class StatsBuilder {
 public:
  /// `num_procs` sizes the per-processor table (the header's declared
  /// count, like compute_stats uses trace.info().num_procs).
  explicit StatsBuilder(std::size_t num_procs) {
    stats_.per_proc_events.assign(num_procs, 0);
  }

  void add(const Event& e);
  void add(const Event* events, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) add(events[i]);
  }

  TraceStats build() const;

 private:
  TraceStats stats_;
  Tick min_ = 0;
  Tick max_ = 0;
  Tick begin_ = 0;
  Tick end_ = 0;
  bool have_begin_ = false;
  bool have_end_ = false;
};

/// Renders stats as an aligned text table.
std::string render_stats(const TraceStats& stats);

/// Per-event comparison between two traces over the events they share.
///
/// Events are matched by (proc, kind, id, object, payload, per-processor
/// occurrence ordinal), so the comparison is meaningful even if timestamps —
/// and hence global order — differ completely.
struct TraceComparison {
  std::size_t matched_events = 0;
  std::size_t unmatched_a = 0;  ///< events of `a` with no partner in `b`
  std::size_t unmatched_b = 0;
  double mean_abs_time_error = 0.0;  ///< mean |t_a - t_b| over matches
  double rms_time_error = 0.0;
  double p50_abs_time_error = 0.0;   ///< median |t_a - t_b|
  double p95_abs_time_error = 0.0;
  Tick max_abs_time_error = 0;
  double total_time_ratio = 0.0;  ///< a.total_time / b.total_time
};

TraceComparison compare(const Trace& a, const Trace& b);

}  // namespace perturb::trace
