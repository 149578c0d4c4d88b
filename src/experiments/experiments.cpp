#include "experiments/experiments.hpp"

#include "instr/calibrate.hpp"
#include "loops/programs.hpp"
#include "support/check.hpp"

namespace perturb::experiments {

Setup setup_from_cli(const support::Cli& cli) {
  Setup setup;
  setup.machine.num_procs = static_cast<std::uint32_t>(
      cli.get_int("procs", setup.machine.num_procs));
  setup.stmt.mean = cli.get_double("stmt-probe", setup.stmt.mean);
  setup.sync.mean = cli.get_double("sync-probe", setup.sync.mean);
  setup.control.mean = cli.get_double("control-probe", setup.control.mean);
  setup.seed = static_cast<std::uint64_t>(
      cli.get_int("seed", static_cast<std::int64_t>(setup.seed)));
  return setup;
}

instr::InstrumentationPlan make_plan(PlanKind kind, const Setup& setup) {
  switch (kind) {
    case PlanKind::kStatementsOnly:
      return instr::InstrumentationPlan::statements_only(setup.stmt, setup.seed);
    case PlanKind::kFull:
      return instr::InstrumentationPlan::full(setup.stmt, setup.sync,
                                              setup.control, setup.seed);
    case PlanKind::kSyncOnly:
      return instr::InstrumentationPlan::sync_only(setup.sync, setup.seed);
  }
  PERTURB_CHECK_MSG(false, "unknown plan kind");
  return instr::InstrumentationPlan::sync_only({}, 0);
}

core::AnalysisOverheads overheads_for(const instr::InstrumentationPlan& plan,
                                      const sim::MachineConfig& machine) {
  core::AnalysisOverheads ov;
  for (std::uint8_t k = 0; k < trace::kNumEventKinds; ++k)
    ov.probe[k] = plan.mean_cost(static_cast<trace::EventKind>(k));
  const instr::SyncOverheads sync = instr::calibrate_sync(machine);
  ov.s_nowait = sync.await_nowait;
  ov.s_wait = sync.await_wait;
  ov.lock_acquire = machine.lock_acquire_cost;
  // Livermore kernels declare no semaphores, so this was historically left
  // unset; synthesized contention workloads do, and the reconstruction must
  // price their acquires like every other sync operation.
  ov.sem_acquire = machine.sem_acquire_cost;
  ov.barrier_depart = machine.barrier_depart_cost;
  return ov;
}

LoopRun analyze_pair(trace::Trace actual, trace::Trace measured,
                     const instr::InstrumentationPlan& plan,
                     const sim::MachineConfig& machine,
                     core::RepairMode repair,
                     const std::map<trace::ObjectId, std::int64_t>& sem_capacity) {
  LoopRun run;
  run.actual = std::move(actual);
  run.measured = std::move(measured);

  core::PipelineOptions options;
  options.overheads = overheads_for(plan, machine);
  options.event_based.semaphore_capacity = sem_capacity;
  options.repair = repair;
  core::AnalysisPipeline pipeline(std::move(options));
  pipeline.add(core::AnalyzerKind::kTimeBased)
      .add(core::AnalyzerKind::kEventBased);

  // Fresh simulator output needs no triage unless the caller asked for the
  // repair path.
  auto acquired = repair == core::RepairMode::kOff
                      ? core::trusted_acquire(run.measured)
                      : pipeline.acquire(run.measured);
  auto result = pipeline.run(std::move(acquired), &run.actual);
  PERTURB_CHECK_MSG(result.acquire.ok, result.acquire.diagnosis);

  run.time_based = std::move(result.outputs[0].approx);
  run.event_based = std::move(*result.outputs[1].event_stats);
  run.event_based.approx = std::move(result.outputs[1].approx);
  run.tb_quality = *result.outputs[0].quality;
  run.eb_quality = *result.outputs[1].quality;
  return run;
}

LoopRun run_program_experiment(const sim::Program& program, const Setup& setup,
                               PlanKind plan_kind, const std::string& name,
                               core::RepairMode repair) {
  const instr::InstrumentationPlan plan = make_plan(plan_kind, setup);
  trace::Trace actual =
      sim::simulate_actual(setup.machine, program, name + "/actual");
  trace::Trace measured =
      sim::simulate(setup.machine, program, plan, name + "/measured");
  return analyze_pair(std::move(actual), std::move(measured), plan,
                      setup.machine, repair);
}

LoopRun run_sequential_experiment(int loop, std::int64_t n, const Setup& setup,
                                  PlanKind plan_kind, core::RepairMode repair) {
  const auto program = loops::make_sequential_ir(loop, n);
  return run_program_experiment(program, setup, plan_kind,
                                "lfk" + std::to_string(loop) + "-seq", repair);
}

LoopRun run_concurrent_experiment(int loop, std::int64_t n, const Setup& setup,
                                  PlanKind plan_kind, sim::Schedule schedule,
                                  core::RepairMode repair) {
  const auto program = loops::make_concurrent_ir(loop, n, schedule);
  return run_program_experiment(program, setup, plan_kind,
                                "lfk" + std::to_string(loop) + "-con", repair);
}

LoopRun run_vector_experiment(int loop, std::int64_t n, const Setup& setup,
                              PlanKind plan_kind, core::RepairMode repair) {
  const auto program = loops::make_vector_ir(loop, n);
  return run_program_experiment(program, setup, plan_kind,
                                "lfk" + std::to_string(loop) + "-vec", repair);
}

}  // namespace perturb::experiments
