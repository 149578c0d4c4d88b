// Failure-injection tests: how the analyses behave on degraded or corrupted
// measured traces.  A production analysis tool must either recover
// gracefully (documented fallbacks) or fail loudly — never silently produce
// garbage for structurally broken input.
#include <gtest/gtest.h>

#include <algorithm>

#include <new>
#include <stdexcept>
#include <string>

#include "../tools/tool_util.hpp"
#include "core/eventbased.hpp"
#include "core/timebased.hpp"
#include "experiments/experiments.hpp"
#include "support/check.hpp"
#include "trace/faults.hpp"
#include "trace/io.hpp"
#include "trace/validate.hpp"

namespace perturb::core {
namespace {

using trace::Event;
using trace::EventKind;
using trace::Trace;

struct Fixture {
  Trace actual;
  Trace measured;
  AnalysisOverheads ov;
};

Fixture make_fixture() {
  experiments::Setup setup;
  setup.machine.num_procs = 4;
  const auto run = experiments::run_concurrent_experiment(
      3, 200, setup, experiments::PlanKind::kFull);
  const auto plan = experiments::make_plan(experiments::PlanKind::kFull, setup);
  Fixture f;
  f.actual = run.actual;
  f.measured = run.measured;
  f.ov = experiments::overheads_for(plan, setup.machine);
  return f;
}

using trace::drop_events;  // fault-injection library (trace/faults.hpp)

TEST(Robustness, MissingAdvancesFallBackGracefully) {
  // Dropped advance events (e.g. a lost trace buffer): the awaitE loses its
  // pairing and falls back to the time-based rule — no crash, bounded drift.
  const Fixture f = make_fixture();
  const Trace degraded = drop_events(f.measured, EventKind::kAdvance, 2);
  const auto result = event_based_approximation(degraded, f.ov);
  EXPECT_EQ(result.approx.size(), degraded.size());
  EXPECT_GT(result.approx.total_time(), 0);
}

TEST(Robustness, MissingAwaitEventsStillResolve) {
  const Fixture f = make_fixture();
  Trace degraded = drop_events(f.measured, EventKind::kAwaitBegin, 2);
  const auto result = event_based_approximation(degraded, f.ov);
  EXPECT_EQ(result.approx.size(), degraded.size());
}

TEST(Robustness, StatementOnlyTraceDegradesToTimeBased) {
  // A trace with no sync events at all: event-based analysis must equal
  // time-based analysis (there is nothing to model).
  const Fixture f = make_fixture();
  Trace stripped(f.measured.info());
  for (const auto& e : f.measured) {
    if (trace::is_sync_kind(e.kind)) continue;
    stripped.append(e);
  }
  const auto eb = event_based_approximation(stripped, f.ov);
  const auto tb = time_based_approximation(stripped, f.ov);
  ASSERT_EQ(eb.approx.size(), tb.size());
  EXPECT_EQ(eb.awaits_total, 0u);
  EXPECT_EQ(eb.approx.total_time(), tb.total_time());
}

TEST(Robustness, CrossedAwaitPairingDeadlockDetected) {
  // Two awaits whose advances appear only after both awaitEs on the *other*
  // processor create a dependency cycle that cannot be resolved; the
  // analysis must fail loudly rather than loop or emit garbage.
  Trace m({"m", 2, 1.0});
  auto ev = [&](trace::Tick t, trace::ProcId proc, EventKind k,
                std::int64_t pay) {
    Event e;
    e.time = t;
    e.proc = proc;
    e.kind = k;
    e.object = 1;
    e.payload = pay;
    m.append(e);
  };
  ev(10, 0, EventKind::kAwaitBegin, 1);
  ev(10, 1, EventKind::kAwaitBegin, 0);
  ev(50, 0, EventKind::kAwaitEnd, 1);   // depends on advance(1) below
  ev(50, 1, EventKind::kAwaitEnd, 0);   // depends on advance(0) below
  ev(60, 0, EventKind::kAdvance, 0);    // after the awaitE that needs it
  ev(60, 1, EventKind::kAdvance, 1);

  // Both entry points diagnose the cycle with the same one-line error.
  std::string batch_error;
  std::string stream_error;
  try {
    event_based_approximation(m, {});
  } catch (const CheckError& e) {
    batch_error = e.what();
  }
  CollectSink sink;
  StreamingReconstructor recon({}, {}, 1024, sink);
  recon.push(m.events());
  try {
    recon.finish();
  } catch (const CheckError& e) {
    stream_error = e.what();
  }
  EXPECT_NE(batch_error.find("deadlocked with 4 unresolved events"),
            std::string::npos)
      << batch_error;
  EXPECT_EQ(batch_error.find('\n'), std::string::npos);
  EXPECT_EQ(stream_error, batch_error);
}

TEST(Robustness, ZeroLengthTrace) {
  const Trace empty({"m", 2, 1.0});
  const auto eb = event_based_approximation(empty, {});
  EXPECT_TRUE(eb.approx.empty());
  const auto tb = time_based_approximation(empty, {});
  EXPECT_TRUE(tb.empty());
}

TEST(Robustness, SingleEventTrace) {
  Trace m({"m", 1, 1.0});
  Event e;
  e.time = 100;
  e.kind = EventKind::kStmtEnter;
  m.append(e);
  AnalysisOverheads ov;
  ov.probe[static_cast<std::size_t>(EventKind::kStmtEnter)] = 30;
  const auto eb = event_based_approximation(m, ov);
  ASSERT_EQ(eb.approx.size(), 1u);
  EXPECT_EQ(eb.approx[0].time, 70);
}

TEST(Robustness, OverheadsLargerThanGapsStayMonotone) {
  // Grossly over-estimated probe costs: reconstruction must clamp, stay
  // monotone per processor, and produce a causally valid trace.
  const Fixture f = make_fixture();
  AnalysisOverheads inflated = f.ov;
  for (auto& alpha : inflated.probe) alpha *= 10;
  const auto result = event_based_approximation(f.measured, inflated);
  std::vector<trace::Tick> last(4, -1);
  for (const auto& e : result.approx) {
    EXPECT_GE(e.time, last[e.proc]);
    last[e.proc] = e.time;
  }
  const auto violations = trace::validate(result.approx);
  EXPECT_TRUE(violations.empty()) << trace::describe(violations);
}

TEST(Robustness, ForeignProcessorIdsHandled) {
  // Events on processors beyond info().num_procs (malformed metadata) must
  // not crash the analyses.
  Trace m({"m", 1, 1.0});
  Event e;
  e.time = 10;
  e.proc = 5;
  e.kind = EventKind::kStmtEnter;
  m.append(e);
  const auto eb = event_based_approximation(m, {});
  EXPECT_EQ(eb.approx.size(), 1u);
  const auto tb = time_based_approximation(m, {});
  EXPECT_EQ(tb.size(), 1u);
}

// ---- tool exit-code mapping -------------------------------------------

// run_tool must translate every escape path into the documented exit codes;
// before the std::exception/... handlers were added, anything outside the
// CheckError hierarchy escaped and aborted the process.
TEST(ToolExitCodes, SuccessPassesThrough) {
  EXPECT_EQ(tools::run_tool([] { return tools::kExitOk; }), tools::kExitOk);
  EXPECT_EQ(tools::run_tool([] { return 7; }), 7);
}

TEST(ToolExitCodes, IoErrorMapsToThree) {
  const int code = tools::run_tool(
      []() -> int { throw trace::IoError("disk on fire"); });
  EXPECT_EQ(code, tools::kExitIoError);
}

TEST(ToolExitCodes, CheckErrorMapsToTwo) {
  // IoError derives from CheckError, so ordering matters; a plain CheckError
  // must still land on the bad-trace code, not the I/O one.
  const int code =
      tools::run_tool([]() -> int { throw CheckError("bad trace"); });
  EXPECT_EQ(code, tools::kExitBadTrace);
}

TEST(ToolExitCodes, UnexpectedStdExceptionMapsToInternal) {
  const int code = tools::run_tool(
      []() -> int { throw std::runtime_error("logic slipped"); });
  EXPECT_EQ(code, tools::kExitInternal);
}

TEST(ToolExitCodes, BadAllocMapsToInternal) {
  const int code = tools::run_tool([]() -> int { throw std::bad_alloc(); });
  EXPECT_EQ(code, tools::kExitInternal);
}

TEST(ToolExitCodes, NonExceptionThrowMapsToInternal) {
  const int code = tools::run_tool([]() -> int { throw 42; });
  EXPECT_EQ(code, tools::kExitInternal);
}

}  // namespace
}  // namespace perturb::core
