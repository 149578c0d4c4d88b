// End-to-end experiment driver: the paper's measurement pipeline.
//
// For a chosen Livermore loop and instrumentation plan:
//   1. simulate the uninstrumented program         → actual trace
//   2. simulate under the instrumentation plan     → measured trace
//   3. run time-based perturbation analysis  (§3)  → time-based approximation
//   4. run event-based perturbation analysis (§4)  → event-based approximation
//   5. score both against the actual trace         → Table 1/2 ratios
//
// Analysis inputs (mean probe costs, s_wait/s_nowait) are assembled the way
// the paper's tooling obtained them: probe means from the instrumentation
// plan, synchronization overheads from empirical calibration runs.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/eventbased.hpp"
#include "core/overheads.hpp"
#include "core/pipeline.hpp"
#include "core/quality.hpp"
#include "core/timebased.hpp"
#include "instr/plan.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"
#include "support/cli.hpp"

namespace perturb::experiments {

/// Experiment-wide knobs; defaults reproduce the paper-scale setup
/// (8 processors, software probes costing tens of microseconds at CE speed,
/// 5 percent probe-cost jitter).
struct Setup {
  sim::MachineConfig machine;  ///< 8 processors by default
  instr::ProbeCost stmt{175.0, 0.05};
  instr::ProbeCost sync{90.0, 0.05};
  instr::ProbeCost control{60.0, 0.05};
  std::uint64_t seed = 1991;
};

/// The default Setup with the bench drivers' overrides applied: --procs,
/// --stmt-probe, --sync-probe, --control-probe and --seed.
Setup setup_from_cli(const support::Cli& cli);

enum class PlanKind : std::uint8_t {
  kStatementsOnly,  ///< §3 instrumentation (Table 1, Figure 1)
  kFull,            ///< §5 instrumentation with sync events (Table 2)
  kSyncOnly,        ///< minimal-volume plan (ablations)
};

instr::InstrumentationPlan make_plan(PlanKind kind, const Setup& setup);

/// Builds the analysis inputs: probe means from the plan, await overheads
/// from calibration micro-runs on the machine model.
core::AnalysisOverheads overheads_for(const instr::InstrumentationPlan& plan,
                                      const sim::MachineConfig& machine);

/// Complete artifact set of one loop experiment.
struct LoopRun {
  trace::Trace actual;
  trace::Trace measured;
  trace::Trace time_based;
  core::EventBasedResult event_based;
  core::ApproximationQuality tb_quality;  ///< time-based vs actual
  core::ApproximationQuality eb_quality;  ///< event-based vs actual
};

/// Analysis tail shared by every experiment driver: runs the time-based and
/// event-based pipeline over an already-simulated (actual, measured) pair
/// and scores both approximations.  With a repair mode other than kOff the
/// measured trace is triaged and repaired before analysis.  `sem_capacity`
/// is the event-based analyzer's external semaphore knowledge (synthesized
/// contention workloads declare semaphores; the Livermore suite never does,
/// so the default empty map preserves its behavior bit for bit).
LoopRun analyze_pair(
    trace::Trace actual, trace::Trace measured,
    const instr::InstrumentationPlan& plan, const sim::MachineConfig& machine,
    core::RepairMode repair = core::RepairMode::kOff,
    const std::map<trace::ObjectId, std::int64_t>& sem_capacity = {});

/// Runs the full pipeline on an arbitrary finalized program.  With a repair
/// mode other than kOff the measured trace is triaged and repaired before
/// analysis (the simulator's output is normally clean; the path matters when
/// fault injection or degraded capture is in play).
LoopRun run_program_experiment(const sim::Program& program,
                               const Setup& setup, PlanKind plan_kind,
                               const std::string& name,
                               core::RepairMode repair = core::RepairMode::kOff);

/// Sequential-mode Livermore loop experiment (Figure 1 rows).
LoopRun run_sequential_experiment(int loop, std::int64_t n, const Setup& setup,
                                  PlanKind plan_kind = PlanKind::kStatementsOnly,
                                  core::RepairMode repair = core::RepairMode::kOff);

/// Concurrent-mode Livermore loop experiment (Tables 1 and 2 rows).
LoopRun run_concurrent_experiment(
    int loop, std::int64_t n, const Setup& setup, PlanKind plan_kind,
    sim::Schedule schedule = sim::Schedule::kCyclic,
    core::RepairMode repair = core::RepairMode::kOff);

/// Vector-mode Livermore loop experiment (§3 ran the suite in scalar, vector
/// and concurrent modes; vector instrumentation records one event per strip).
LoopRun run_vector_experiment(int loop, std::int64_t n, const Setup& setup,
                              PlanKind plan_kind = PlanKind::kStatementsOnly,
                              core::RepairMode repair = core::RepairMode::kOff);

}  // namespace perturb::experiments
