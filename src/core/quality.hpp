// Approximation quality metrics: the ratios the paper's Tables 1 and 2
// report, plus per-event error summaries.
#pragma once

#include <string>

#include "trace/trace.hpp"

namespace perturb::core {

struct ApproximationQuality {
  double measured_over_actual = 0.0;  ///< Measured/Actual execution time
  double approx_over_actual = 0.0;    ///< Approximated/Actual execution time
  double percent_error = 0.0;         ///< (approx - actual)/actual * 100
  double mean_abs_event_error = 0.0;  ///< mean |t_approx - t_actual|, ticks
  double rms_event_error = 0.0;
  double p50_event_error = 0.0;       ///< median |t_approx - t_actual|
  double p95_event_error = 0.0;
  std::size_t matched_events = 0;     ///< events compared between the traces
  /// True when the measured trace was salvaged or repaired with loss before
  /// analysis (see trace::RepairSeverity): the metrics above then describe a
  /// degraded input, not a faithful measurement.
  bool degraded_input = false;
};

/// Scores an approximated trace against the actual (uninstrumented) trace,
/// also reporting how perturbed the measurement itself was.
ApproximationQuality assess(const trace::Trace& measured,
                            const trace::Trace& approx,
                            const trace::Trace& actual);

}  // namespace perturb::core
