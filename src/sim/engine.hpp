// Discrete-event multiprocessor simulator.
//
// The engine executes an IR program on a simulated machine and produces the
// run's event trace.  Two properties make it the right substrate for
// perturbation experiments:
//
//  1. A run with NullInstrumentation yields the exact logical event trace —
//     the "actual" performance the paper could only measure separately.
//  2. A run with a real instrumentation hook charges probe costs to the
//     processor clocks, so instrumentation perturbs blocking probability,
//     critical-section contention, and (under self-scheduling) the
//     iteration→processor mapping — the phenomena of §3–§4.
//
// Correctness of the event interleaving relies on a conservative DES rule:
// actions are processed in global start-time order, every shared-state read
// happens at the reading action's pop time, and writes carry visibility
// times >= the writer's start time.  Reads compare visibility against the
// reader's clock, so cross-processor races resolve identically to a real
// machine with these costs.
#pragma once

#include <cstdint>
#include <string>

#include "sim/hooks.hpp"
#include "sim/ir.hpp"
#include "sim/machine.hpp"
#include "trace/trace.hpp"

namespace perturb::sim {

/// Simulates `program` (which must be finalized) on `config`'s machine under
/// `hook`'s instrumentation and returns the event trace.  Deterministic:
/// identical inputs produce identical traces.
///
/// Event conventions (relied upon by perturbation analysis):
///  - A recorded event's timestamp is taken *after* its probe cost is
///    charged, so each measured event carries its own overhead.
///  - An advance becomes visible to awaiting processors when the advance
///    operation completes, *before* the advance probe runs.
///  - awaitB is recorded on arrival at the await; the satisfaction test costs
///    `await_check_cost`; a satisfied await records awaitE immediately after,
///    while a blocking await resumes `await_resume_cost` after the advance
///    becomes visible.
///  - await indices outside [0, trip) are dependence-free (first iterations
///    of a distance-d chain) and execute as no-ops without events.
///  - Advance/await event payloads are `episode * 2^32 + index`, unique
///    program-wide; barrier and loop events carry the episode as payload and
///    the loop's site id as object.
trace::Trace simulate(const MachineConfig& config, const Program& program,
                      const InstrumentationHook& hook,
                      const std::string& run_name);

/// Convenience: simulate with NullInstrumentation (the actual execution).
trace::Trace simulate_actual(const MachineConfig& config,
                             const Program& program,
                             const std::string& run_name = "actual");

}  // namespace perturb::sim
