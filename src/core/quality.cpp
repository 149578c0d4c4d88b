#include "core/quality.hpp"

#include "trace/trace_stats.hpp"

namespace perturb::core {

ApproximationQuality assess(const trace::Trace& measured,
                            const trace::Trace& approx,
                            const trace::Trace& actual) {
  ApproximationQuality q;
  const auto actual_total = static_cast<double>(actual.total_time());
  if (actual_total > 0.0) {
    q.measured_over_actual =
        static_cast<double>(measured.total_time()) / actual_total;
    q.approx_over_actual =
        static_cast<double>(approx.total_time()) / actual_total;
    q.percent_error = (q.approx_over_actual - 1.0) * 100.0;
  }
  const auto cmp = trace::compare(approx, actual);
  q.mean_abs_event_error = cmp.mean_abs_time_error;
  q.rms_event_error = cmp.rms_time_error;
  q.p50_event_error = cmp.p50_abs_time_error;
  q.p95_event_error = cmp.p95_abs_time_error;
  q.matched_events = cmp.matched_events;
  return q;
}

}  // namespace perturb::core
