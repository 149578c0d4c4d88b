// The five ledger workloads.  Each one sets up its inputs (reporting
// setup_s), runs its correctness gates, runs the untraced job loop for the
// end-to-end metrics and, with Options::trace, the traced jobs for the
// per-layer metrics.
#pragma once

#include "common.hpp"

namespace ledger {

/// lfk3-offline and contention-offline: the analyst job over a binary trace.
void run_offline(const Options& options, Report& report);

/// pareto-stream: memory-bounded streaming analysis of a binary trace.
void run_stream(const Options& options, Report& report);

/// experiments-grid: one screened experiment sweep per job.
void run_grid(const Options& options, Report& report);

/// daemon-mixed: a forked analysis daemon under closed- and open-loop load.
void run_daemon(const Options& options, Report& report);

}  // namespace ledger
