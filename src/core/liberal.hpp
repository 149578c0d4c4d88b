// Liberal perturbation analysis: scheduling re-simulation (§4.2.3, §4.3).
//
// Conservative analysis must keep the measured iteration→processor mapping,
// but under dynamic self-scheduling instrumentation remaps work across
// processors, so the conservative approximation reproduces a mapping the
// uninstrumented program would never have produced.  When the analyst can
// assert external execution information — "this was a constant-distance
// DOACROSS loop scheduled by policy S" — the analysis may go further:
//
//   1. extract each iteration's de-instrumented segment costs from the
//      measured trace (pre-await work, awaitE→advance chain work, post
//      work, and the dependence distance d),
//   2. re-simulate the loop on the machine model under policy S.
//
// Step 2 reuses the simulator: the extracted shape is lowered back to an IR
// DOACROSS program with per-iteration cost functions and executed with
// NullInstrumentation.  The result is a *liberal approximation* — usually
// closer to the likely execution, but no longer guaranteed to preserve the
// measured total order.
//
// Scope: single-chain, constant-distance DOACROSS loops (the paper's §4.3
// model and the shape of Livermore loops 3, 4, and 17).
#pragma once

#include <cstdint>
#include <vector>

#include "core/overheads.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"
#include "trace/index.hpp"
#include "trace/trace.hpp"

namespace perturb::core {

/// Per-iteration de-instrumented costs extracted from a measured trace.
struct IterationShape {
  std::int64_t iteration = 0;
  Cycles pre = 0;    ///< work before the await (or before the advance if none)
  Cycles chain = 0;  ///< work between awaitE and advance (the guarded region)
  Cycles post = 0;   ///< work after the advance
  bool has_await = false;
  bool has_advance = false;
};

struct DoacrossShape {
  std::vector<IterationShape> iterations;  ///< indexed by iteration
  std::int64_t distance = 0;  ///< constant dependence distance (0 = DOALL)
  trace::ObjectId loop_object = 0;
};

/// Extracts the shape of the (single) parallel loop in `measured`.
/// Requires loop/iteration markers and (for DOACROSS) sync events in the
/// trace; throws CheckError if the trace does not fit the model (multiple
/// advances per iteration, non-constant distance, ...).  `replay` is the
/// machine the shape will be re-simulated on: its advance_cost is the part
/// of each awaitE→advance gap that the replay re-adds, so only the rest
/// counts as guarded work.
DoacrossShape extract_doacross_shape(const trace::Trace& measured,
                                     const AnalysisOverheads& overheads,
                                     const sim::MachineConfig& replay);

/// Same extraction over a pre-built index of the measured trace.
DoacrossShape extract_doacross_shape(const trace::TraceIndex& index,
                                     const AnalysisOverheads& overheads,
                                     const sim::MachineConfig& replay);

struct LiberalOptions {
  sim::MachineConfig machine;  ///< machine model for the re-simulation
  sim::Schedule schedule = sim::Schedule::kCyclic;  ///< asserted loop policy
};

struct LiberalResult {
  trace::Trace approx;  ///< synthetic trace of the re-simulated loop
  Tick loop_time = 0;   ///< LoopEnd - LoopBegin of the re-simulation
  std::vector<trace::ProcId> iteration_to_proc;  ///< re-simulated mapping
};

/// Lowers the extracted shape back to a finalized IR program: one parallel
/// loop under `schedule` with per-iteration segment cost functions (the
/// liberal replay program).  Shared by the liberal re-simulation and the
/// analytical model so both evaluate exactly the same program.
sim::Program lower_doacross_shape(const DoacrossShape& shape,
                                  sim::Schedule schedule);

/// Re-simulates the extracted loop under the asserted scheduling policy.
LiberalResult liberal_approximation(const DoacrossShape& shape,
                                    const LiberalOptions& options);

/// Summarizes a trace of one parallel loop the way liberal_approximation
/// summarizes its re-simulation (the trace moves into `approx`), so an
/// actual run or a conservative approximation of the same loop can be
/// compared with it field by field.
LiberalResult summarize_loop(trace::Trace trace);

}  // namespace perturb::core
