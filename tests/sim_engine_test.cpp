// Tests for the discrete-event engine: timing conventions, parallel-loop
// orchestration, advance/await and lock semantics, barriers, determinism,
// and deadlock detection.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "support/check.hpp"
#include "trace/validate.hpp"

namespace perturb::sim {
namespace {

using trace::Event;
using trace::EventKind;
using trace::Tick;
using trace::Trace;

MachineConfig config(std::uint32_t procs = 4) {
  MachineConfig cfg;
  cfg.num_procs = procs;
  return cfg;
}

/// Instrumentation with a flat probe cost on every event.
class FlatProbe final : public InstrumentationHook {
 public:
  explicit FlatProbe(Cycles cost) : cost_(cost) {}
  bool records(EventKind, trace::EventId) const override { return true; }
  Cycles probe_cost(EventKind, trace::EventId, trace::ProcId,
                    std::uint64_t) const override {
    return cost_;
  }

 private:
  Cycles cost_;
};

std::vector<Event> events_of_kind(const Trace& t, EventKind kind) {
  std::vector<Event> out;
  for (const auto& e : t)
    if (e.kind == kind) out.push_back(e);
  return out;
}

const Event* find_first(const Trace& t, EventKind kind) {
  for (const auto& e : t)
    if (e.kind == kind) return &e;
  return nullptr;
}

Program two_statements() {
  Program p;
  p.root().nodes.push_back(compute("a", 10));
  p.root().nodes.push_back(compute("b", 20));
  p.finalize();
  return p;
}

// ---- sequential timing ---------------------------------------------------

TEST(Engine, SequentialStatementTiming) {
  const auto t = simulate_actual(config(1), two_statements(), "t");
  ASSERT_EQ(t.size(), 6u);  // prog begin/end + 2x enter/exit
  EXPECT_EQ(t[0].kind, EventKind::kProgramBegin);
  EXPECT_EQ(t[0].time, 0);
  EXPECT_EQ(t[1].time, 0);   // a enter
  EXPECT_EQ(t[2].time, 10);  // a exit
  EXPECT_EQ(t[3].time, 10);  // b enter
  EXPECT_EQ(t[4].time, 30);  // b exit
  EXPECT_EQ(t[5].kind, EventKind::kProgramEnd);
  EXPECT_EQ(t.total_time(), 30);
}

TEST(Engine, RequiresFinalizedProgram) {
  Program p;
  p.root().nodes.push_back(compute("a", 1));
  EXPECT_THROW(simulate_actual(config(1), p, "t"), CheckError);
}

TEST(Engine, SeqLoopChargesIterationOverhead) {
  Program p;
  Block body;
  body.nodes.push_back(compute("x", 10));
  p.root().nodes.push_back(seq_loop("l", 3, std::move(body)));
  p.finalize();
  const auto t = simulate_actual(config(1), p, "t");
  // 3 * (loop bookkeeping 1 + stmt 10).
  EXPECT_EQ(t.total_time(), 33);
}

TEST(Engine, ZeroTripSeqLoop) {
  Program p;
  Block body;
  body.nodes.push_back(compute("x", 10));
  p.root().nodes.push_back(seq_loop("l", 0, std::move(body)));
  p.finalize();
  EXPECT_EQ(simulate_actual(config(1), p, "t").total_time(), 0);
}

TEST(Engine, ProbeCostChargedBeforeTimestamp) {
  const FlatProbe probe(5);
  const auto t = simulate(config(1), two_statements(), probe, "t");
  // begin@5, a.enter@10, a.exit@25 (probe 5 + cost 10 + probe 5), ...
  EXPECT_EQ(t[0].time, 5);
  EXPECT_EQ(t[1].time, 10);
  EXPECT_EQ(t[2].time, 25);
  EXPECT_EQ(t[3].time, 30);
  EXPECT_EQ(t[4].time, 55);
  // total = work 30 + 6 probes(30) - begin/end asymmetry handled by markers
  EXPECT_EQ(t.total_time(), 55);
}

TEST(Engine, UnrecordedKindsCostNothing) {
  /// Records nothing at all: timing must match the uninstrumented run.
  class Silent final : public InstrumentationHook {
   public:
    bool records(EventKind, trace::EventId) const override { return false; }
    Cycles probe_cost(EventKind, trace::EventId, trace::ProcId,
                      std::uint64_t) const override {
      return 1000000;  // must never be charged
    }
  };
  const Silent hook;
  const auto t = simulate(config(1), two_statements(), hook, "t");
  EXPECT_TRUE(t.empty());
}

TEST(Engine, RawComputeConsumesTimeWithoutEvents) {
  Program p;
  p.root().nodes.push_back(raw_compute("hidden", 40));
  p.root().nodes.push_back(compute("seen", 10));
  p.finalize();
  const auto t = simulate_actual(config(1), p, "t");
  const auto enters = events_of_kind(t, EventKind::kStmtEnter);
  ASSERT_EQ(enters.size(), 1u);
  EXPECT_EQ(enters[0].time, 40);  // delayed by the hidden work
  EXPECT_EQ(t.total_time(), 50);
}

// ---- parallel loop orchestration -------------------------------------------

Program doall(std::int64_t trip, Cycles cost, Schedule sched,
              std::uint32_t = 0) {
  Program p;
  Block body;
  body.nodes.push_back(compute("w", cost));
  p.root().nodes.push_back(
      par_loop("l", LoopKind::kDoall, sched, trip, std::move(body)));
  p.finalize();
  return p;
}

TEST(Engine, CyclicAssignment) {
  const auto t = simulate_actual(config(4), doall(8, 10, Schedule::kCyclic), "t");
  for (const auto& e : events_of_kind(t, EventKind::kIterBegin))
    EXPECT_EQ(e.proc, e.payload % 4);
}

TEST(Engine, BlockAssignment) {
  const auto t = simulate_actual(config(4), doall(8, 10, Schedule::kBlock), "t");
  for (const auto& e : events_of_kind(t, EventKind::kIterBegin))
    EXPECT_EQ(e.proc, e.payload / 2);
}

TEST(Engine, AllIterationsExecuteExactlyOnce) {
  for (const auto sched :
       {Schedule::kCyclic, Schedule::kBlock, Schedule::kSelf}) {
    const auto t = simulate_actual(config(4), doall(13, 7, sched), "t");
    std::multiset<std::int64_t> begun;
    std::multiset<std::int64_t> ended;
    for (const auto& e : t) {
      if (e.kind == EventKind::kIterBegin) begun.insert(e.payload);
      if (e.kind == EventKind::kIterEnd) ended.insert(e.payload);
    }
    EXPECT_EQ(begun.size(), 13u) << schedule_name(sched);
    EXPECT_EQ(ended.size(), 13u);
    for (std::int64_t i = 0; i < 13; ++i) {
      EXPECT_EQ(begun.count(i), 1u);
      EXPECT_EQ(ended.count(i), 1u);
    }
  }
}

TEST(Engine, BarrierClosesLoop) {
  const auto t = simulate_actual(config(4), doall(8, 10, Schedule::kCyclic), "t");
  const auto arrives = events_of_kind(t, EventKind::kBarrierArrive);
  const auto departs = events_of_kind(t, EventKind::kBarrierDepart);
  ASSERT_EQ(arrives.size(), 4u);
  ASSERT_EQ(departs.size(), 4u);
  Tick max_arrival = 0;
  for (const auto& e : arrives) max_arrival = std::max(max_arrival, e.time);
  for (const auto& e : departs)
    EXPECT_EQ(e.time, max_arrival + config().barrier_depart_cost);
}

TEST(Engine, LoopMarkersOnMaster) {
  const auto t = simulate_actual(config(4), doall(8, 10, Schedule::kCyclic), "t");
  const Event* begin = find_first(t, EventKind::kLoopBegin);
  const Event* end = find_first(t, EventKind::kLoopEnd);
  ASSERT_NE(begin, nullptr);
  ASSERT_NE(end, nullptr);
  EXPECT_EQ(begin->proc, 0);
  EXPECT_EQ(end->proc, 0);
  EXPECT_GT(end->time, begin->time);
}

TEST(Engine, SequentialTailRunsAfterLoopOnMaster) {
  Program p;
  Block body;
  body.nodes.push_back(compute("w", 10));
  p.root().nodes.push_back(
      par_loop("l", LoopKind::kDoall, Schedule::kCyclic, 4, std::move(body)));
  p.root().nodes.push_back(compute("tail", 5));
  p.finalize();
  const auto t = simulate_actual(config(2), p, "t");
  const Event* loop_end = find_first(t, EventKind::kLoopEnd);
  ASSERT_NE(loop_end, nullptr);
  bool found_tail = false;
  for (const auto& e : t) {
    if (e.kind == EventKind::kStmtEnter && e.time >= loop_end->time) {
      EXPECT_EQ(e.proc, 0);
      found_tail = true;
    }
  }
  EXPECT_TRUE(found_tail);
}

TEST(Engine, ZeroTripParallelLoop) {
  const auto t = simulate_actual(config(4), doall(0, 10, Schedule::kCyclic), "t");
  EXPECT_EQ(events_of_kind(t, EventKind::kIterBegin).size(), 0u);
  EXPECT_EQ(events_of_kind(t, EventKind::kBarrierDepart).size(), 4u);
  EXPECT_TRUE(trace::validate(t).empty());
}

TEST(Engine, FewerIterationsThanProcessors) {
  const auto t = simulate_actual(config(8), doall(3, 10, Schedule::kCyclic), "t");
  EXPECT_EQ(events_of_kind(t, EventKind::kIterBegin).size(), 3u);
  EXPECT_EQ(events_of_kind(t, EventKind::kBarrierDepart).size(), 8u);
}

TEST(Engine, DoallSpeedsUpWithProcessors) {
  const auto t1 = simulate_actual(config(1), doall(8, 100, Schedule::kCyclic), "t");
  const auto t8 = simulate_actual(config(8), doall(8, 100, Schedule::kCyclic), "t");
  EXPECT_GT(t1.total_time(), 6 * t8.total_time() / 2);
  EXPECT_LT(t8.total_time(), t1.total_time());
}

TEST(Engine, CostFnReceivesParallelIteration) {
  Program p;
  Block body;
  body.nodes.push_back(compute_fn("w", [](std::int64_t i) { return 10 * i; }));
  p.root().nodes.push_back(
      par_loop("l", LoopKind::kDoall, Schedule::kCyclic, 6, std::move(body)));
  p.finalize();
  const auto t = simulate_actual(config(2), p, "t");
  std::map<std::int64_t, Tick> enter;
  for (const auto& e : t) {
    if (e.kind == EventKind::kStmtEnter) enter[e.payload] = e.time;
    if (e.kind == EventKind::kStmtExit) {
      EXPECT_EQ(e.time - enter[e.payload], 10 * e.payload);
    }
  }
}

TEST(Engine, CostFnReceivesSeqIterationOutsideParLoops) {
  Program p;
  Block body;
  body.nodes.push_back(compute_fn("w", [](std::int64_t i) { return 5 + i; }));
  p.root().nodes.push_back(seq_loop("l", 3, std::move(body)));
  p.finalize();
  const auto t = simulate_actual(config(1), p, "t");
  std::vector<Tick> durations;
  Tick enter = 0;
  for (const auto& e : t) {
    if (e.kind == EventKind::kStmtEnter) enter = e.time;
    if (e.kind == EventKind::kStmtExit) durations.push_back(e.time - enter);
  }
  EXPECT_EQ(durations, (std::vector<Tick>{5, 6, 7}));
}

// ---- advance / await -----------------------------------------------------

Program chain(std::int64_t trip, Cycles pre, Cycles guarded,
              std::int64_t distance = 1, std::uint32_t = 0) {
  Program p;
  const auto var = p.declare_sync_var("S");
  Block body;
  if (pre > 0) body.nodes.push_back(compute("pre", pre));
  body.nodes.push_back(await(var, {1, -distance}));
  body.nodes.push_back(raw_compute("upd", guarded));
  body.nodes.push_back(advance(var, {1, 0}));
  p.root().nodes.push_back(par_loop("l", LoopKind::kDoacross,
                                    Schedule::kCyclic, trip, std::move(body)));
  p.finalize();
  return p;
}

TEST(Engine, ChainSerializesAdvances) {
  const auto cfg = config(4);
  const auto t = simulate_actual(cfg, chain(8, 0, 50), "t");
  const auto advances = events_of_kind(t, EventKind::kAdvance);
  ASSERT_EQ(advances.size(), 8u);
  // Advance times strictly increase along the chain: dependent execution.
  for (std::size_t i = 1; i < advances.size(); ++i)
    EXPECT_GT(advances[i].time, advances[i - 1].time);
  EXPECT_TRUE(trace::validate(t).empty());
}

TEST(Engine, FirstIterationsOfChainSkipAwait) {
  const auto t = simulate_actual(config(4), chain(8, 10, 10, 3), "t");
  // distance 3: iterations 0..2 have no await events.
  EXPECT_EQ(events_of_kind(t, EventKind::kAwaitBegin).size(), 5u);
  EXPECT_EQ(events_of_kind(t, EventKind::kAwaitEnd).size(), 5u);
}

TEST(Engine, AwaitThatWaitsResumesAfterAdvance) {
  const auto cfg = config(2);
  const auto t = simulate_actual(cfg, chain(4, 0, 100), "t");
  std::map<std::int64_t, Tick> advance_time;
  for (const auto& e : t)
    if (e.kind == EventKind::kAdvance) advance_time[e.payload] = e.time;
  std::map<std::int64_t, Tick> await_b;
  for (const auto& e : t) {
    if (e.kind == EventKind::kAwaitBegin) await_b[e.payload] = e.time;
    if (e.kind == EventKind::kAwaitEnd) {
      const Tick adv = advance_time.at(e.payload);
      if (adv > await_b.at(e.payload)) {
        // waited: resumes a fixed latency after the advance
        EXPECT_EQ(e.time, adv + cfg.await_resume_cost);
      }
    }
  }
}

TEST(Engine, AwaitWithoutWaitingIsCheap) {
  // Pre-work increasing steeply with the iteration index means every
  // dependence is satisfied long before the await executes.
  Program p;
  const auto var = p.declare_sync_var("S");
  Block body;
  body.nodes.push_back(
      compute_fn("pre", [](std::int64_t i) { return 100 + 1000 * i; }));
  body.nodes.push_back(await(var, {1, -1}));
  body.nodes.push_back(raw_compute("upd", 10));
  body.nodes.push_back(advance(var, {1, 0}));
  p.root().nodes.push_back(par_loop("l", LoopKind::kDoacross,
                                    Schedule::kCyclic, 4, std::move(body)));
  p.finalize();
  const auto cfg = config(2);
  const auto t = simulate_actual(cfg, p, "t");
  std::map<std::int64_t, Tick> await_b;
  std::size_t checked = 0;
  for (const auto& e : t) {
    if (e.kind == EventKind::kAwaitBegin) await_b[e.payload] = e.time;
    if (e.kind == EventKind::kAwaitEnd) {
      EXPECT_EQ(e.time - await_b.at(e.payload), cfg.await_check_cost);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(Engine, AdvanceVisibleBeforeItsProbe) {
  // With a huge probe on the advance event, the chain must still progress at
  // the un-probed advance rate plus the probe on the awaitE side only.
  class AdvanceProbe final : public InstrumentationHook {
   public:
    bool records(EventKind kind, trace::EventId) const override {
      return kind == EventKind::kAdvance;
    }
    Cycles probe_cost(EventKind, trace::EventId, trace::ProcId,
                      std::uint64_t) const override {
      return 10000;
    }
  };
  const AdvanceProbe hook;
  const auto cfg = config(2);
  const auto actual = simulate_actual(cfg, chain(4, 0, 100), "t");
  const auto measured = simulate(cfg, chain(4, 0, 100), hook, "t");
  // The probe delays each processor's *next* iteration but not the advance
  // visibility itself: with 2 procs and 4 iterations, iteration 2 (proc 0)
  // starts late, so some slowdown occurs — but far less than 4 x 10000.
  EXPECT_LT(measured.span(), actual.total_time() + 2 * 10000 + 1000);
}

TEST(Engine, DeadlockDetected) {
  Program p;
  const auto var = p.declare_sync_var("S");
  Block body;
  body.nodes.push_back(await(var, {1, 0}));  // waits for its own advance
  body.nodes.push_back(advance(var, {1, 0}));
  p.root().nodes.push_back(
      par_loop("l", LoopKind::kDoacross, Schedule::kCyclic, 2, std::move(body)));
  p.finalize();
  EXPECT_THROW(simulate_actual(config(2), p, "t"), CheckError);
}

TEST(Engine, RepeatedLoopExecutionGetsDistinctEpisodes) {
  Program p;
  const auto var = p.declare_sync_var("S");
  Block body;
  body.nodes.push_back(await(var, {1, -1}));
  body.nodes.push_back(advance(var, {1, 0}));
  Block outer;
  outer.nodes.push_back(
      par_loop("l", LoopKind::kDoacross, Schedule::kCyclic, 4, std::move(body)));
  p.root().nodes.push_back(seq_loop("rep", 3, std::move(outer)));
  p.finalize();
  const auto t = simulate_actual(config(2), p, "t");
  // 3 episodes x 4 advances, all payloads unique (episode-stamped).
  const auto advances = events_of_kind(t, EventKind::kAdvance);
  ASSERT_EQ(advances.size(), 12u);
  std::set<std::int64_t> payloads;
  for (const auto& e : advances) payloads.insert(e.payload);
  EXPECT_EQ(payloads.size(), 12u);
  EXPECT_TRUE(trace::validate(t).empty());
}

TEST(Engine, ScaledAwaitIndexExpressions) {
  // Wavefront-style dependence: iteration i awaits index 2i-20, produced by
  // iteration 2i-20 (always an earlier iteration for i < 20, and skipped
  // while 2i-20 < 0 or >= trip).
  Program p;
  const auto var = p.declare_sync_var("S");
  Block body;
  body.nodes.push_back(compute("w", 20));
  body.nodes.push_back(await(var, {2, -20}));
  body.nodes.push_back(advance(var, {1, 0}));
  p.root().nodes.push_back(par_loop("l", LoopKind::kDoacross,
                                    Schedule::kCyclic, 16, std::move(body)));
  p.finalize();
  const auto t = simulate_actual(config(4), p, "t");
  const auto violations = trace::validate(t);
  EXPECT_TRUE(violations.empty()) << trace::describe(violations);
  // Awaits only for iterations with 0 <= 2i-20 < 16, i.e. i in [10, 15].
  EXPECT_EQ(events_of_kind(t, EventKind::kAwaitEnd).size(), 6u);
}

TEST(Engine, MultipleLocksAreIndependent) {
  Program p;
  const auto lock_a = p.declare_lock("A");
  const auto lock_b = p.declare_lock("B");
  Block body;
  body.nodes.push_back(critical(lock_a, block(compute("a", 40))));
  body.nodes.push_back(critical(lock_b, block(compute("b", 40))));
  p.root().nodes.push_back(par_loop("l", LoopKind::kDoall, Schedule::kCyclic,
                                    16, std::move(body)));
  p.finalize();
  const auto one_lock_time = [&] {
    Program q;
    const auto lock = q.declare_lock("A");
    Block b;
    b.nodes.push_back(critical(lock, block(compute("a", 40))));
    b.nodes.push_back(critical(lock, block(compute("b", 40))));
    q.root().nodes.push_back(par_loop("l", LoopKind::kDoall, Schedule::kCyclic,
                                      16, std::move(b)));
    q.finalize();
    return simulate_actual(config(4), q, "q").total_time();
  }();
  const auto two_locks = simulate_actual(config(4), p, "t");
  EXPECT_TRUE(trace::validate(two_locks).empty());
  // Two independent locks pipeline the two sections; one shared lock
  // serializes them all.
  EXPECT_LT(two_locks.total_time(), one_lock_time);
}

// ---- critical sections ------------------------------------------------------

Program critical_loop(std::int64_t trip, Cycles pre, Cycles inside) {
  Program p;
  const auto lock = p.declare_lock("L");
  Block body;
  body.nodes.push_back(compute("pre", pre));
  body.nodes.push_back(critical(lock, block(compute("cs", inside))));
  p.root().nodes.push_back(par_loop("l", LoopKind::kDoall, Schedule::kCyclic,
                                    trip, std::move(body)));
  p.finalize();
  return p;
}

TEST(Engine, CriticalSectionsMutuallyExclusive) {
  const auto t = simulate_actual(config(4), critical_loop(8, 10, 50), "t");
  EXPECT_TRUE(trace::validate(t).empty());  // includes lock-overlap checks
  EXPECT_EQ(events_of_kind(t, EventKind::kLockAcquire).size(), 8u);
  EXPECT_EQ(events_of_kind(t, EventKind::kLockRelease).size(), 8u);
}

TEST(Engine, ContendedLockSerializes) {
  // All processors hit the critical section at once; the loop time must be
  // at least trip * inside.
  const auto t = simulate_actual(config(4), critical_loop(8, 0, 100), "t");
  EXPECT_GE(t.total_time(), 800);
}

TEST(Engine, UncontendedLockIsCheap) {
  const auto cfg = config(1);
  const auto t = simulate_actual(cfg, critical_loop(2, 0, 10), "t");
  std::size_t acquires = 0;
  Tick prev = 0;
  for (const auto& e : t) {
    if (e.kind == EventKind::kLockAcquire) {
      // The preceding event is the zero-cost "pre" statement's exit; an
      // uncontended acquire costs exactly the acquire latency.
      EXPECT_EQ(e.time - prev, cfg.lock_acquire_cost);
      ++acquires;
    }
    prev = e.time;
  }
  EXPECT_EQ(acquires, 2u);
}

// ---- determinism -------------------------------------------------------------

TEST(Engine, DeterministicAcrossRuns) {
  for (const auto sched :
       {Schedule::kCyclic, Schedule::kBlock, Schedule::kSelf}) {
    const auto a = simulate_actual(config(4), doall(16, 30, sched), "t");
    const auto b = simulate_actual(config(4), doall(16, 30, sched), "t");
    ASSERT_EQ(a.size(), b.size()) << schedule_name(sched);
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(Engine, TraceMetadataPropagates) {
  auto cfg = config(4);
  cfg.ticks_per_us = 42.0;
  const auto t = simulate_actual(cfg, two_statements(), "my-run");
  EXPECT_EQ(t.info().name, "my-run");
  EXPECT_EQ(t.info().num_procs, 4u);
  EXPECT_DOUBLE_EQ(t.info().ticks_per_us, 42.0);
}

TEST(Engine, TraceIsTimeOrderedAndValid) {
  const auto t = simulate_actual(config(4), chain(16, 20, 10), "t");
  EXPECT_TRUE(t.is_time_ordered());
  const auto violations = trace::validate(t);
  EXPECT_TRUE(violations.empty()) << trace::describe(violations);
}

}  // namespace
}  // namespace perturb::sim
