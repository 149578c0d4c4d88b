#include "experiments/grid.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <unordered_map>
#include <utility>

#include "loops/programs.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/text.hpp"
#include "trace/io.hpp"

namespace perturb::experiments {

const char* exec_mode_name(ExecMode mode) noexcept {
  switch (mode) {
    case ExecMode::kSequential: return "seq";
    case ExecMode::kConcurrent: return "con";
    case ExecMode::kVector: return "vec";
  }
  return "?";
}

std::string scenario_name(const Scenario& s) {
  if (s.workload) return workload::workload_name(*s.workload);
  return "lfk" + std::to_string(s.loop) + "-" + exec_mode_name(s.mode);
}

namespace {

sim::Program make_program(const Scenario& s) {
  if (s.workload) return workload::make_program(*s.workload);
  switch (s.mode) {
    case ExecMode::kSequential: return loops::make_sequential_ir(s.loop, s.n);
    case ExecMode::kConcurrent:
      return loops::make_concurrent_ir(s.loop, s.n, s.schedule);
    case ExecMode::kVector: return loops::make_vector_ir(s.loop, s.n);
  }
  PERTURB_CHECK_MSG(false, "unknown execution mode");
  return loops::make_sequential_ir(s.loop, s.n);
}

/// Memo key of the uninstrumented run: everything the actual trace depends
/// on — program identity (mode, loop, trip, schedule) and every machine
/// parameter.  Probe costs, plan kind, and repair mode are deliberately
/// absent: variant sweeps over those share one actual simulation.  The
/// schedule only shapes concurrent IR, so other modes collapse it.
std::string actual_key(const Scenario& s) {
  const sim::MachineConfig& m = s.setup.machine;
  std::string key = support::strf(
      "%d|%d|%lld|%d|%u|%a", static_cast<int>(s.mode), s.loop,
      static_cast<long long>(s.n),
      s.mode == ExecMode::kConcurrent ? static_cast<int>(s.schedule) : -1,
      m.num_procs, m.ticks_per_us);
  for (const sim::Cycles c :
       {m.advance_cost, m.await_check_cost, m.await_resume_cost,
        m.lock_acquire_cost, m.lock_release_cost, m.sem_acquire_cost,
        m.sem_release_cost, m.barrier_depart_cost, m.loop_spawn_cost,
        m.iter_dispatch_cost, m.self_sched_fetch_cost, m.self_sched_serialize,
        m.seq_loop_iter_cost})
    key += support::strf("|%lld", static_cast<long long>(c));
  // Synthesized cells derive their program from the workload descriptor, so
  // the key must carry every knob of it: equal keys must imply bit-identical
  // actual runs.  (The loop/n/schedule fields above are inert for workload
  // cells but harmless — at worst they split a shareable key.)
  if (s.workload) {
    key += '|';
    key += workload::workload_key(*s.workload);
  }
  return key;
}

trace::Trace simulate_actual_for(const Scenario& s) {
  const sim::Program program = make_program(s);
  return sim::simulate_actual(s.setup.machine, program,
                              scenario_name(s) + "/actual");
}

trace::Trace measured_for(const Scenario& s,
                          const instr::InstrumentationPlan& plan,
                          trace::IoArena& arena) {
  if (s.measured_path.empty()) {
    if (s.workload && workload::has_interference(*s.workload)) {
      // Interference perturbs the *measurement*, never the actual run: the
      // wrapped hook inflates probe costs inside deterministic bursts.
      const workload::InterferenceHook hook(plan, *s.workload);
      return sim::simulate(s.setup.machine, make_program(s), hook,
                           scenario_name(s) + "/measured");
    }
    return sim::simulate(s.setup.machine, make_program(s), plan,
                         scenario_name(s) + "/measured");
  }
  if (s.repair == core::RepairMode::kOff)
    return trace::load(s.measured_path, arena);
  // Repairing scenarios tolerate truncated captures the way the pipeline's
  // own file path does: salvage what the file still holds, then let
  // acquisition triage it.
  trace::SalvageReport report;
  return trace::load_salvage(s.measured_path, report, arena);
}

/// Semaphore capacities the event-based analyzer needs as external
/// knowledge.  Only synthesized workloads declare semaphores; rebuilding the
/// program just for its declarations is cheap next to simulating it.
std::map<trace::ObjectId, std::int64_t> sem_capacities_for(const Scenario& s) {
  if (!s.workload) return {};
  return workload::semaphore_capacities(make_program(s));
}

/// One grid cell, given its (possibly shared) actual trace.
LoopRun run_cell(const Scenario& s, trace::Trace actual,
                 trace::IoArena& arena) {
  const instr::InstrumentationPlan plan = make_plan(s.plan, s.setup);
  trace::Trace measured = measured_for(s, plan, arena);
  if (s.mutate_measured) s.mutate_measured(measured);
  return analyze_pair(std::move(actual), std::move(measured), plan,
                      s.setup.machine, s.repair, sem_capacities_for(s));
}

// Self-observability: grid volume, actual-run memoization effectiveness
// (hits = cells that reused another cell's simulated actual), and the static
// per-worker cell partition as a balance histogram.
const support::Counter kGridCells("grid.cells");
const support::Counter kGridMemoHits("grid.memo.hits");
const support::Counter kGridMemoMisses("grid.memo.misses");
const support::HistogramMetric kGridWorkerCells("grid.worker.cells");
// Screening effectiveness: cells answered by the model alone vs cells that
// paid the simulate+reconstruct path, and the model's observed accuracy on
// fall-through cells (|model - event-based| relative error in basis points;
// confident cells never simulate, so only fall-through cells can report it).
const support::Counter kScreenConfident("grid.screen.confident");
const support::Counter kScreenFallthrough("grid.screen.fallthrough");
const support::HistogramMetric kModelError("grid.model.error");

void record_grid_metrics(std::size_t cells, std::size_t unique,
                         const support::TaskPool& pool) {
  if (!support::Metrics::enabled()) return;
  kGridCells.add(cells);
  kGridMemoMisses.add(unique);
  kGridMemoHits.add(cells - unique);
  // parallel_for assigns worker w the block [w*n/W, (w+1)*n/W); the block
  // sizes describe the fan-out without any per-cell recording.
  for (std::size_t w = 0; w < pool.size(); ++w)
    kGridWorkerCells.observe(static_cast<std::uint64_t>(
        (w + 1) * cells / pool.size() - w * cells / pool.size()));
}

}  // namespace

LoopRun run_scenario(const Scenario& s) {
  trace::IoArena arena;
  return run_cell(s, simulate_actual_for(s), arena);
}

std::vector<LoopRun> run_grid(const std::vector<Scenario>& scenarios,
                              const GridOptions& options) {
  std::vector<LoopRun> runs(scenarios.size());
  if (scenarios.empty()) return runs;
  // Group cells by actual-run key.  The grouping runs serially so the
  // unique-key order — and hence which worker simulates which actual —
  // depends only on the scenario list, never on timing.
  std::vector<std::size_t> actual_of(scenarios.size());
  std::vector<std::size_t> owner;  ///< first scenario using each unique key
  if (options.memoize_actual) {
    std::unordered_map<std::string, std::size_t> key_index;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const auto [it, fresh] =
          key_index.try_emplace(actual_key(scenarios[i]), owner.size());
      if (fresh) owner.push_back(i);
      actual_of[i] = it->second;
    }
  }

  support::TaskPool pool(options.threads);
  std::vector<trace::IoArena> arenas(pool.size());
  record_grid_metrics(scenarios.size(),
                      options.memoize_actual ? owner.size()
                                             : scenarios.size(),
                      pool);

  // No sharing to exploit (memoization off, or every key unique): one fused
  // pass with cell-local actual runs instead of a pre-pass plus a barrier.
  if (!options.memoize_actual || owner.size() == scenarios.size()) {
    // Each cell is self-contained; worker w is the sole user of arenas[w]
    // and each result slot is written by exactly one cell.
    pool.parallel_for(scenarios.size(),
                      [&](std::size_t worker, std::size_t i) {
                        runs[i] = run_cell(scenarios[i],
                                           simulate_actual_for(scenarios[i]),
                                           arenas[worker]);
                      });
    return runs;
  }

  // Simulate each unique actual once; every cell then analyzes its own copy
  // (LoopRun owns its traces, and simulation is deterministic, so sharing
  // versus re-simulating is observationally identical).
  std::vector<trace::Trace> actuals(owner.size());
  pool.parallel_for(owner.size(), [&](std::size_t k) {
    actuals[k] = simulate_actual_for(scenarios[owner[k]]);
  });
  pool.parallel_for(scenarios.size(), [&](std::size_t worker, std::size_t i) {
    runs[i] = run_cell(scenarios[i], trace::Trace(actuals[actual_of[i]]),
                       arenas[worker]);
  });
  return runs;
}

namespace {

model::ProbeTable probe_table_for(const instr::InstrumentationPlan& plan) {
  model::ProbeTable table{};
  for (std::uint8_t k = 0; k < trace::kNumEventKinds; ++k)
    table[k] = plan.mean_cost(static_cast<trace::EventKind>(k));
  return table;
}

/// Largest probe-jitter fraction the plan's recorded categories carry; the
/// model predicts with the means, so this is pure uncertainty input.
double plan_jitter(const Scenario& s) {
  switch (s.plan) {
    case PlanKind::kStatementsOnly: return s.setup.stmt.jitter_frac;
    case PlanKind::kSyncOnly: return s.setup.sync.jitter_frac;
    case PlanKind::kFull:
      return std::max({s.setup.stmt.jitter_frac, s.setup.sync.jitter_frac,
                       s.setup.control.jitter_frac});
  }
  return 0.0;
}

}  // namespace

CellPrediction predict_scenario(const Scenario& s) {
  CellPrediction out;
  if (!s.measured_path.empty() || s.mutate_measured ||
      s.repair != core::RepairMode::kOff ||
      (s.workload && workload::has_interference(*s.workload))) {
    // The model sees program structure; a cell whose measured trace comes
    // from a file, gets mutated, needs repair, or is inflated by a
    // measurement-time interference hook is opaque to it.
    out.uncertainty = 1.0;
    out.actual.uncertainty = 1.0;
    out.measured.uncertainty = 1.0;
    out.actual.caveats.push_back(
        "cell input is not a pure simulation (file/fault/repair/interference)");
    out.measured.caveats = out.actual.caveats;
    return out;
  }
  const sim::Program program = make_program(s);
  out.actual = model::predict_program(program, s.setup.machine,
                                      model::no_probes());
  const instr::InstrumentationPlan plan = make_plan(s.plan, s.setup);
  model::ModelOptions measured_opts;
  measured_opts.probe_jitter = plan_jitter(s);
  out.measured = model::predict_program(program, s.setup.machine,
                                        probe_table_for(plan), measured_opts);
  out.uncertainty =
      std::max(out.actual.uncertainty, out.measured.uncertainty);
  return out;
}

ScreenedGrid run_grid_screened(const std::vector<Scenario>& scenarios,
                               const ScreenOptions& options) {
  ScreenedGrid grid;
  grid.cells.resize(scenarios.size());

  // Screen serially: each prediction is microseconds of arithmetic, and a
  // timing-independent partition keeps the whole sweep deterministic.
  std::vector<std::size_t> fallthrough_index;
  std::vector<Scenario> fallthrough_cells;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    ScreenedCell& cell = grid.cells[i];
    cell.prediction = predict_scenario(scenarios[i]);
    cell.screened = cell.prediction.uncertainty <= options.uncertainty_threshold;
    if (!cell.screened) {
      fallthrough_index.push_back(i);
      fallthrough_cells.push_back(scenarios[i]);
    }
  }
  grid.fallthrough = fallthrough_cells.size();
  grid.confident = scenarios.size() - grid.fallthrough;

  std::vector<LoopRun> runs = run_grid(fallthrough_cells, options.grid);
  for (std::size_t k = 0; k < runs.size(); ++k)
    grid.cells[fallthrough_index[k]].run = std::move(runs[k]);

  if (support::Metrics::enabled()) {
    kScreenConfident.add(grid.confident);
    kScreenFallthrough.add(grid.fallthrough);
    // Fall-through cells ran both paths, so they can score the model against
    // the event-based reconstruction it would have replaced.
    for (const std::size_t i : fallthrough_index) {
      const ScreenedCell& cell = grid.cells[i];
      const trace::Tick eb = cell.run.event_based.approx.total_time();
      const trace::Tick predicted = cell.prediction.actual.total;
      if (eb <= 0 || predicted <= 0) continue;
      const double rel = std::abs(static_cast<double>(predicted - eb)) /
                         static_cast<double>(eb);
      kModelError.observe(static_cast<std::uint64_t>(rel * 10000.0));
    }
  }
  return grid;
}

}  // namespace perturb::experiments
