// Parallel experiment grids.
//
// The paper's tables and this repo's ablations are all sweeps: the same loop
// experiment repeated across processor counts, probe costs, plans, or
// execution modes.  A Scenario captures one cell of such a sweep as data;
// run_grid fans a vector of them across a deterministic task pool, with two
// structural optimizations the serial drivers cannot express:
//
//  1. Actual-run memoization.  The uninstrumented ("actual") simulation
//     depends only on the program and the machine — not on probe costs,
//     plans, or repair modes — so variant sweeps share one actual run per
//     (mode, loop, n, schedule, machine) key instead of re-simulating it
//     per cell.
//  2. Per-worker I/O arenas.  Scenarios that analyze captured trace files
//     load them through one reusable buffer per worker.
//
// Results are bit-identical to running each scenario alone, at any thread
// count and with memoization on or off.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "experiments/experiments.hpp"
#include "model/model.hpp"
#include "workload/workload.hpp"

namespace perturb::experiments {

/// How a scenario lowers its Livermore loop to IR (§3 ran the suite in
/// scalar, vector, and concurrent modes).
enum class ExecMode : std::uint8_t { kSequential, kConcurrent, kVector };

/// "seq", "con", or "vec" — the suffix used in canonical run names.
const char* exec_mode_name(ExecMode mode) noexcept;

/// One cell of an experiment grid.  Every field is data (no hidden state),
/// so a scenario can be hashed, compared, and dispatched to any worker.
struct Scenario {
  int loop = 3;
  std::int64_t n = 1001;
  ExecMode mode = ExecMode::kConcurrent;
  sim::Schedule schedule = sim::Schedule::kCyclic;  ///< concurrent mode only
  Setup setup;
  PlanKind plan = PlanKind::kStatementsOnly;
  core::RepairMode repair = core::RepairMode::kOff;
  /// When set, the measured trace is loaded from this file (through the
  /// worker's I/O arena) instead of simulated — the degraded-capture path.
  std::string measured_path;
  /// Optional fault injection applied to the measured trace before
  /// acquisition.  Must be a pure function of the trace for the grid's
  /// determinism guarantee to hold.
  std::function<void(trace::Trace&)> mutate_measured;
  /// When set, the cell runs a synthesized workload instead of a Livermore
  /// kernel: loop/n/mode/schedule are ignored (the spec carries its own trip
  /// and schedule), the actual-run memo key incorporates the full workload
  /// descriptor, and interference specs wrap the measured run's plan in a
  /// workload::InterferenceHook.
  std::optional<workload::WorkloadSpec> workload;
};

/// Canonical run name, e.g. "lfk17-con"; matches the serial
/// run_{sequential,concurrent,vector}_experiment drivers so traces are
/// byte-identical between the two paths.
std::string scenario_name(const Scenario& s);

/// Runs one scenario through the full pipeline — the canonical serial
/// semantics that run_grid reproduces bit-identically.
LoopRun run_scenario(const Scenario& s);

struct GridOptions {
  std::size_t threads = 1;     ///< task-pool workers; 0 = hardware concurrency
  bool memoize_actual = true;  ///< share actual runs across matching cells
};

/// Runs every scenario across a support::TaskPool.  result[i] is
/// bit-identical to run_scenario(scenarios[i]) for every thread count and
/// memoization setting.
std::vector<LoopRun> run_grid(const std::vector<Scenario>& scenarios,
                              const GridOptions& options = {});

// ---- analytical screening (ROADMAP item 2) -------------------------------

/// Analytical verdict for one grid cell: the model evaluated under both of
/// the cell's parameterizations.  Screening must trust the prediction of the
/// *actual* run AND the prediction of the *measured* run (the reconstruction
/// a fall-through cell would be scored against), so the screening-relevant
/// uncertainty is the max over both — e.g. Livermore 17's chain is nearly
/// saturated uninstrumented but firmly saturated instrumented: either
/// parameterization alone would miss half the risk.
struct CellPrediction {
  model::Prediction actual;    ///< uninstrumented run, no probes
  model::Prediction measured;  ///< instrumented run, plan probe means
  /// max(actual.uncertainty, measured.uncertainty); forced to 1.0 for cells
  /// the model cannot see (file-loaded traces, fault injection, repair).
  double uncertainty = 1.0;
};

/// Evaluates one cell analytically — no simulation, microseconds per cell.
CellPrediction predict_scenario(const Scenario& s);

/// Screening threshold calibrated by the bench_model cross-validation sweep
/// over the full Livermore grid (see DESIGN.md §12): at 0.25 every cell
/// whose model error exceeds the confident-cell accuracy gate carries a
/// higher uncertainty than this, with margin on both sides.
inline constexpr double kDefaultScreenThreshold = 0.25;

struct ScreenOptions {
  GridOptions grid;  ///< fall-through execution options
  double uncertainty_threshold = kDefaultScreenThreshold;
};

/// One screened cell: `prediction` is always filled; `run` only when the
/// cell fell through (screened == false).
struct ScreenedCell {
  bool screened = false;
  CellPrediction prediction;
  LoopRun run;
};

struct ScreenedGrid {
  std::vector<ScreenedCell> cells;  ///< one per scenario, same order
  std::size_t confident = 0;        ///< cells answered by the model alone
  std::size_t fallthrough = 0;      ///< cells that paid simulate + analyze
};

/// The screened sweep: every scenario is first evaluated analytically; cells
/// with prediction uncertainty <= the threshold take the model's answer in
/// O(model) time, the rest run through run_grid.  Fall-through results are
/// bit-identical to run_grid over the full list (same per-cell semantics,
/// any thread count); a sweep of model-confident cells costs near-O(1)
/// simulation work regardless of grid size.
ScreenedGrid run_grid_screened(const std::vector<Scenario>& scenarios,
                               const ScreenOptions& options = {});

}  // namespace perturb::experiments
