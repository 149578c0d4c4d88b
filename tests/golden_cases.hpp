// Inputs of the golden-digest tables in golden_digests.hpp.
//
// The engine cases are every (machine, program, hook) triple the engine
// equivalence suite simulates: the Livermore suite under each hook kind,
// every schedule, the site-filter and stmt-exit plan variants, a custom
// virtual hook, a machine large enough to engage the indexed waiter wake,
// 30 fuzzed programs, and the five synthesized workload families (bursty
// runs its InterferenceHook through the virtual-hook instantiation).  The
// index traces cover Livermore DOACROSS chains at 1/2/8 processors, lock,
// semaphore and multi-phase barrier workloads, and a fault-injected trace
// with a duplicate advance; the approximation cases reconstruct those same
// traces with the plan's mean probe costs and the machine's sync costs.
// The degenerate traces are hand-built advance/await patterns that break
// the pairing a well-formed trace has.
//
// Each case carries a unique label; the digest tables are keyed on it.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/eventbased.hpp"
#include "experiments/experiments.hpp"
#include "instr/plan.hpp"
#include "loops/programs.hpp"
#include "sim/engine.hpp"
#include "support/prng.hpp"
#include "trace/faults.hpp"
#include "workload/workload.hpp"

namespace perturb::golden {

inline sim::MachineConfig machine(std::uint32_t procs = 8) {
  sim::MachineConfig cfg;
  cfg.num_procs = procs;
  return cfg;
}

/// A hook that is neither NullInstrumentation nor a CostTableHook: the
/// engine must run it through the virtual-dispatch instantiation.
class EveryOtherEvent final : public sim::InstrumentationHook {
 public:
  bool records(trace::EventKind kind, trace::EventId) const override {
    return static_cast<int>(kind) % 2 == 0;
  }
  sim::Cycles probe_cost(trace::EventKind, trace::EventId, trace::ProcId proc,
                         std::uint64_t index) const override {
    return 20 + static_cast<sim::Cycles>((proc + index) % 7);
  }
};

/// Compact randomized program: a parallel loop mixing computation, an
/// optional DOACROSS chain, and an optional critical or semaphore region,
/// deadlock-free by construction.
inline sim::Program random_program(std::uint64_t seed) {
  using namespace sim;
  support::Xoshiro256 rng(seed);
  Program p;
  auto rand_cost = [&](Cycles lo, Cycles hi) {
    return lo + static_cast<Cycles>(
                    rng.below(static_cast<std::uint64_t>(hi - lo + 1)));
  };

  Block body;
  const auto pre = 1 + rng.below(3);
  for (std::uint64_t s = 0; s < pre; ++s)
    body.nodes.push_back(compute("pre", rand_cost(5, 300)));
  if (rng.below(2) == 0) {
    Block inner;
    inner.nodes.push_back(compute("inner", rand_cost(5, 40)));
    body.nodes.push_back(seq_loop(
        "seq", 1 + static_cast<std::int64_t>(rng.below(4)), std::move(inner)));
  }
  const bool chained = rng.below(3) != 0;
  if (chained) {
    const auto var = p.declare_sync_var("S");
    const auto d = 1 + static_cast<std::int64_t>(rng.below(3));
    body.nodes.push_back(await(var, {1, -d}));
    body.nodes.push_back(compute("guarded", rand_cost(5, 60)));
    body.nodes.push_back(advance(var, {1, 0}));
  }
  const auto region = rng.below(3);
  if (region == 1) {
    const auto lock = p.declare_lock("L");
    body.nodes.push_back(
        critical(lock, block(compute("cs", rand_cost(5, 80)))));
  } else if (region == 2) {
    const auto cap = 1 + static_cast<std::int64_t>(rng.below(3));
    const auto sem = p.declare_semaphore("M", cap);
    body.nodes.push_back(
        semaphore_region(sem, block(compute("sem cs", rand_cost(5, 80)))));
  }
  if (rng.below(2) == 0)
    body.nodes.push_back(compute("post", rand_cost(5, 150)));

  const Schedule scheds[] = {Schedule::kCyclic, Schedule::kBlock,
                             Schedule::kSelf};
  const auto sched = scheds[rng.below(3)];
  const auto trip = 16 + static_cast<std::int64_t>(rng.below(100));
  p.root().nodes.push_back(compute("head", rand_cost(10, 100)));
  p.root().nodes.push_back(par_loop(
      "fuzz", chained ? LoopKind::kDoacross : LoopKind::kDoall, sched, trip,
      std::move(body)));
  p.root().nodes.push_back(compute("tail", rand_cost(10, 100)));
  p.finalize();
  return p;
}

enum class EngineGroup {
  kLivermoreNull,
  kLivermorePlans,
  kSchedules,
  kPlanVariants,
  kCustomHook,
  kManyWaiters,
  kFuzz,
  kWorkloads,
};

inline constexpr EngineGroup kEngineGroups[] = {
    EngineGroup::kLivermoreNull, EngineGroup::kLivermorePlans,
    EngineGroup::kSchedules,     EngineGroup::kPlanVariants,
    EngineGroup::kCustomHook,    EngineGroup::kManyWaiters,
    EngineGroup::kFuzz,          EngineGroup::kWorkloads};

inline instr::InstrumentationPlan full_plan(std::uint64_t seed = 1991) {
  return instr::InstrumentationPlan::full({175.0, 0.05}, {90.0, 0.05},
                                          {60.0, 0.05}, seed);
}

/// Calls fn(label, machine, program, hook) for every engine case of `group`.
template <typename Fn>
void for_each_engine_case(EngineGroup group, Fn&& fn) {
  using sim::Schedule;
  const sim::NullInstrumentation null_hook;
  const auto n = [](int loop) { return std::to_string(loop); };
  switch (group) {
    case EngineGroup::kLivermoreNull:
      for (const int loop : {1, 3, 4, 7, 12, 17, 22}) {
        fn("null/con/lfk" + n(loop), machine(),
           loops::make_concurrent_ir(loop, 200), null_hook);
        fn("null/seq/lfk" + n(loop), machine(),
           loops::make_sequential_ir(loop, 200), null_hook);
      }
      for (const int loop : {1, 7, 12, 22})
        fn("null/vec/lfk" + n(loop), machine(),
           loops::make_vector_ir(loop, 200), null_hook);
      return;
    case EngineGroup::kLivermorePlans: {
      const auto stmts =
          instr::InstrumentationPlan::statements_only({175.0, 0.05}, 1991);
      const auto full = full_plan();
      const auto sync =
          instr::InstrumentationPlan::sync_only({90.0, 0.05}, 7);
      for (const int loop : {3, 4, 17}) {
        const auto program = loops::make_concurrent_ir(loop, 200);
        fn("stmts/lfk" + n(loop), machine(), program, stmts);
        fn("full/lfk" + n(loop), machine(), program, full);
        fn("sync/lfk" + n(loop), machine(), program, sync);
      }
      return;
    }
    case EngineGroup::kSchedules: {
      const auto full = full_plan();
      for (const int loop : {3, 17})
        for (const Schedule sched :
             {Schedule::kCyclic, Schedule::kBlock, Schedule::kSelf})
          fn("sched" + std::to_string(static_cast<int>(sched)) + "/lfk" +
                 n(loop),
             machine(), loops::make_concurrent_ir(loop, 150, sched), full);
      return;
    }
    case EngineGroup::kPlanVariants: {
      const auto program = loops::make_concurrent_ir(17, 150);
      auto filtered =
          instr::InstrumentationPlan::statements_only({175.0, 0.0}, 3);
      std::vector<bool> filter(program.num_sites());
      for (std::size_t i = 0; i < filter.size(); ++i) filter[i] = (i % 2) == 0;
      filtered.set_site_filter(filter);
      fn("site-filter", machine(), program, filtered);
      auto no_exit = full_plan();
      no_exit.set_record_stmt_exit(false);
      fn("no-stmt-exit", machine(), program, no_exit);
      return;
    }
    case EngineGroup::kCustomHook: {
      const EveryOtherEvent hook;
      for (const int loop : {3, 17})
        fn("custom/lfk" + n(loop), machine(),
           loops::make_concurrent_ir(loop, 200), hook);
      return;
    }
    case EngineGroup::kManyWaiters: {
      // 48 processors blocking on a distance-1 chain push a sync variable's
      // waiter list past the indexed-wake threshold (32 waiters).
      const auto full = instr::InstrumentationPlan::full(
          {700.0, 0.05}, {350.0, 0.05}, {200.0, 0.05}, 1991);
      for (const Schedule sched : {Schedule::kCyclic, Schedule::kSelf}) {
        const auto program = loops::make_concurrent_ir(3, 400, sched);
        const std::string s = std::to_string(static_cast<int>(sched));
        fn("waiters/null/sched" + s, machine(48), program, null_hook);
        fn("waiters/full/sched" + s, machine(48), program, full);
      }
      return;
    }
    case EngineGroup::kFuzz:
      for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        const auto program = random_program(seed);
        const auto procs = 2 + static_cast<std::uint32_t>(seed % 7);
        const auto full = full_plan(seed);
        fn("fuzz-null/" + std::to_string(seed), machine(procs), program,
           null_hook);
        fn("fuzz-full/" + std::to_string(seed), machine(procs), program,
           full);
      }
      return;
    case EngineGroup::kWorkloads:
      for (const auto family :
           {workload::Family::kPareto, workload::Family::kLognormal,
            workload::Family::kContention, workload::Family::kIrregular,
            workload::Family::kBursty}) {
        for (const std::uint64_t seed : {1u, 2u}) {
          workload::WorkloadSpec spec;
          spec.family = family;
          spec.seed = seed;
          spec.params = workload::default_params(family);
          spec.params.trip = 200;
          const auto program = workload::make_program(spec);
          const auto full = full_plan(seed);
          const workload::InterferenceHook bursts(full, spec);
          const sim::InstrumentationHook& measured =
              workload::has_interference(spec)
                  ? static_cast<const sim::InstrumentationHook&>(bursts)
                  : full;
          for (const std::uint32_t procs : {1u, 2u, 8u}) {
            const std::string label = workload::workload_name(spec) + "/p" +
                                      std::to_string(procs);
            fn(label + "/actual", machine(procs), program, null_hook);
            fn(label + "/measured", machine(procs), program, measured);
          }
        }
      }
      return;
  }
}

/// Fully instrumented (measured) trace of `program` on `procs` processors.
inline trace::Trace measured_trace(const sim::Program& program,
                                   std::uint32_t procs,
                                   const std::string& name) {
  return sim::simulate(machine(procs), program, full_plan(), name);
}

inline sim::Program workload_program(workload::Family family,
                                     double critical_density,
                                     double sem_density) {
  workload::WorkloadSpec spec;
  spec.family = family;
  spec.seed = 3;
  spec.params = workload::default_params(family);
  spec.params.trip = 200;
  spec.params.critical_density = critical_density;
  spec.params.sem_density = sem_density;
  return workload::make_program(spec);
}

/// (label, trace) pairs whose TraceIndex answers the index digests pin.
inline std::vector<std::pair<std::string, trace::Trace>> index_traces() {
  std::vector<std::pair<std::string, trace::Trace>> out;
  for (const int loop : {3, 4, 17})
    for (const std::uint32_t procs : {1u, 2u, 8u}) {
      const std::string label =
          "lfk" + std::to_string(loop) + "/p" + std::to_string(procs);
      out.emplace_back(label,
                       measured_trace(loops::make_concurrent_ir(loop, 200),
                                      procs, label));
    }
  out.emplace_back(
      "contention",
      measured_trace(
          workload_program(workload::Family::kContention, 0.6, 0.0), 8,
          "contention"));
  out.emplace_back(
      "semaphore",
      measured_trace(
          workload_program(workload::Family::kContention, 0.0, 0.6), 8,
          "semaphore"));
  out.emplace_back(
      "barrier",
      measured_trace(workload_program(workload::Family::kIrregular, 0.0, 0.0),
                     8, "barrier"));
  // out[2] is lfk3/p8: a DOACROSS chain whose advance gets a duplicate.
  out.emplace_back("duplicate-advance",
                   trace::inject_violation(
                       out[2].second, trace::ViolationKind::kDuplicateAdvance));
  return out;
}

/// One event-based reconstruction whose result the approximation digests
/// pin: an index trace with the overheads and options it is analyzed with.
struct ApproxCase {
  std::string label;
  trace::Trace measured;
  core::AnalysisOverheads overheads;
  core::EventBasedOptions options;
};

/// The index traces, each with full_plan()'s mean probe costs and its
/// machine's calibrated sync costs; the semaphore trace also carries its
/// program's declared capacities.
inline std::vector<ApproxCase> approx_cases() {
  std::vector<ApproxCase> out;
  for (auto& [label, measured] : index_traces()) {
    ApproxCase c{label, std::move(measured), {}, {}};
    c.overheads = experiments::overheads_for(
        full_plan(), machine(c.measured.info().num_procs));
    if (label == "semaphore")
      c.options.semaphore_capacity = workload::semaphore_capacities(
          workload_program(workload::Family::kContention, 0.0, 0.6));
    out.push_back(std::move(c));
  }
  return out;
}

/// Hand-built traces whose advance/await pairing is degenerate, each round
/// of its pattern repeated over 40 payloads (so 97-event slices of an
/// incremental build split the pattern at varied points), between
/// statements on every processor.  Sync variable 1; processor 0 advances,
/// processors 1 and 2 await:
///   * "interleaved-awaits": processor 1 issues two awaitBs before either
///     awaitE;
///   * "duplicate-advances": each key is advanced twice, once before and
///     once after processor 1's awaitE;
///   * "await-before-advance": the awaitE precedes its advance in trace
///     order, and every fifth key has no advance at all;
///   * "duplicate-await-begin": processor 1 awaits each key twice;
///   * "reversed-advances": each pair of keys is advanced in descending
///     order, so the advances leave key order;
///   * "repeated-await-end": processor 1 ends each await twice after one
///     awaitB, so the second awaitE finds its awaitB already consumed.
inline std::vector<std::pair<std::string, trace::Trace>> degenerate_traces() {
  using trace::EventKind;
  struct Builder {
    trace::Trace t{trace::TraceInfo{"", 3, 1.0}};
    trace::Tick time = 0;
    void add(trace::ProcId proc, EventKind kind, std::int64_t payload = 0,
             trace::ObjectId object = 1) {
      time += 5 + static_cast<trace::Tick>((t.size() * 7) % 11);
      t.append({time, payload, 1, object, proc, kind});
    }
    void statements() {
      for (trace::ProcId p = 0; p < 3; ++p) {
        add(p, EventKind::kStmtEnter, 0, 0);
        add(p, EventKind::kStmtExit, 0, 0);
      }
    }
  };
  using Round = void (*)(Builder&, std::int64_t);
  const std::pair<const char*, Round> patterns[] = {
      {"interleaved-awaits",
       [](Builder& b, std::int64_t r) {
         b.add(0, EventKind::kAdvance, 2 * r);
         b.add(1, EventKind::kAwaitBegin, 2 * r);
         b.add(1, EventKind::kAwaitBegin, 2 * r + 1);
         b.add(0, EventKind::kAdvance, 2 * r + 1);
         b.add(1, EventKind::kAwaitEnd, 2 * r);
         b.add(1, EventKind::kAwaitEnd, 2 * r + 1);
       }},
      {"duplicate-advances",
       [](Builder& b, std::int64_t r) {
         b.add(0, EventKind::kAdvance, r);
         b.add(1, EventKind::kAwaitBegin, r);
         b.add(1, EventKind::kAwaitEnd, r);
         b.add(0, EventKind::kAdvance, r);
         b.add(2, EventKind::kAwaitBegin, r);
         b.add(2, EventKind::kAwaitEnd, r);
       }},
      {"await-before-advance",
       [](Builder& b, std::int64_t r) {
         b.add(1, EventKind::kAwaitBegin, r);
         b.add(1, EventKind::kAwaitEnd, r);
         if (r % 5 != 4) b.add(0, EventKind::kAdvance, r);
       }},
      {"duplicate-await-begin",
       [](Builder& b, std::int64_t r) {
         b.add(0, EventKind::kAdvance, r);
         b.add(1, EventKind::kAwaitBegin, r);
         b.add(1, EventKind::kAwaitEnd, r);
         b.add(1, EventKind::kAwaitBegin, r);
         b.add(1, EventKind::kAwaitEnd, r);
       }},
      {"reversed-advances",
       [](Builder& b, std::int64_t r) {
         b.add(0, EventKind::kAdvance, 2 * r + 1);
         b.add(0, EventKind::kAdvance, 2 * r);
         b.add(1, EventKind::kAwaitBegin, 2 * r);
         b.add(1, EventKind::kAwaitEnd, 2 * r);
         b.add(2, EventKind::kAwaitBegin, 2 * r + 1);
         b.add(2, EventKind::kAwaitEnd, 2 * r + 1);
       }},
      {"repeated-await-end",
       [](Builder& b, std::int64_t r) {
         b.add(0, EventKind::kAdvance, r);
         b.add(1, EventKind::kAwaitBegin, r);
         b.add(1, EventKind::kAwaitEnd, r);
         b.add(1, EventKind::kAwaitEnd, r);
       }},
  };
  std::vector<std::pair<std::string, trace::Trace>> out;
  for (const auto& [label, round] : patterns) {
    Builder b;
    b.t.info().name = label;
    b.add(0, EventKind::kProgramBegin, 0, 0);
    for (std::int64_t r = 0; r < 40; ++r) {
      b.statements();
      round(b, r);
    }
    b.statements();
    b.add(0, EventKind::kProgramEnd, 0, 0);
    out.emplace_back(label, std::move(b.t));
  }
  return out;
}

}  // namespace perturb::golden
