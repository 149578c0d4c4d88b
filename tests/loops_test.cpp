// Tests for the Livermore workload suite: native kernels (determinism,
// checksum stability, recurrence behaviour) and the IR lowerings (structure,
// Figure 3 synchronization placement, execution on the simulator).
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "loops/kernels.hpp"
#include "loops/programs.hpp"
#include "sim/engine.hpp"
#include "support/check.hpp"
#include "trace/validate.hpp"

namespace perturb::loops {
namespace {

TEST(Kernels, AllKernelsRunAndProduceFiniteChecksums) {
  LfkData data(1001);
  for (int k = 1; k <= kNumKernels; ++k) {
    data.reset();
    const double checksum = run_kernel(k, data);
    EXPECT_TRUE(std::isfinite(checksum)) << "kernel " << k;
  }
}

// Every kernel stays inside its workspace at small data sizes too: under
// AddressSanitizer an out-of-bounds subscript fails this test.
TEST(Kernels, AllKernelsRunAtSmallDataSizes) {
  for (const std::int64_t n : {32, 64, 120, 440}) {
    LfkData data(n);
    for (int k = 1; k <= kNumKernels; ++k) {
      data.reset();
      EXPECT_TRUE(std::isfinite(run_kernel(k, data)))
          << "kernel " << k << " n " << n;
    }
  }
}

TEST(Kernels, DeterministicAcrossRuns) {
  LfkData a(1001, 42);
  LfkData b(1001, 42);
  for (int k = 1; k <= kNumKernels; ++k) {
    a.reset();
    b.reset();
    EXPECT_DOUBLE_EQ(run_kernel(k, a), run_kernel(k, b)) << "kernel " << k;
  }
}

TEST(Kernels, SeedChangesData) {
  LfkData a(1001, 1);
  LfkData b(1001, 2);
  EXPECT_NE(run_kernel(3, a), run_kernel(3, b));
}

TEST(Kernels, InnerProductMatchesDirectComputation) {
  LfkData d(256);
  double expected = 0.0;
  for (std::int64_t i = 0; i < 256; ++i)
    expected += d.z[static_cast<std::size_t>(i)] *
                d.x[static_cast<std::size_t>(i)];
  EXPECT_DOUBLE_EQ(run_kernel(3, d), expected);
}

TEST(Kernels, FirstSumIsPrefixSum) {
  LfkData d(128);
  const auto y = d.y;
  run_kernel(11, d);
  double acc = 0.0;
  for (std::int64_t i = 0; i < 128; ++i) {
    acc += y[static_cast<std::size_t>(i)];
    EXPECT_NEAR(d.x[static_cast<std::size_t>(i)], acc, 1e-9);
  }
}

TEST(Kernels, FirstDifference) {
  LfkData d(128);
  const auto y = d.y;
  run_kernel(12, d);
  for (std::int64_t i = 0; i < 128; ++i)
    EXPECT_DOUBLE_EQ(d.x[static_cast<std::size_t>(i)],
                     y[static_cast<std::size_t>(i + 1)] -
                         y[static_cast<std::size_t>(i)]);
}

TEST(Kernels, FirstMinimumFindsPlantedMinimum) {
  LfkData d(512);
  // run_kernel(24) plants -1e10 at n/2 and must find it.
  EXPECT_DOUBLE_EQ(run_kernel(24, d), 256.0);
}

TEST(Kernels, RejectsUnknownKernel) {
  LfkData d(64);
  EXPECT_THROW(run_kernel(0, d), CheckError);
  EXPECT_THROW(run_kernel(25, d), CheckError);
}

TEST(Kernels, RejectsTinyWorkspace) {
  EXPECT_THROW(LfkData(8), CheckError);
}

TEST(Kernels, NamesAndStudySets) {
  EXPECT_STREQ(kernel_name(3), "Inner Product");
  EXPECT_STREQ(kernel_name(17), "Implicit, Conditional Computation");
  EXPECT_TRUE(is_doacross_kernel(3));
  EXPECT_TRUE(is_doacross_kernel(4));
  EXPECT_TRUE(is_doacross_kernel(17));
  EXPECT_FALSE(is_doacross_kernel(1));
  EXPECT_EQ(doacross_study_loops(), (std::vector<int>{3, 4, 17}));
  EXPECT_EQ(sequential_study_loops().size(), 9u);
}

// ---- IR specs ---------------------------------------------------------

TEST(LoopIr, EveryKernelHasASpec) {
  for (int k = 1; k <= kNumKernels; ++k) {
    const auto& spec = loop_ir_spec(k);
    EXPECT_EQ(spec.number, k);
    EXPECT_FALSE(spec.pre.empty()) << "kernel " << k;
    EXPECT_GT(default_trip(k), 0);
  }
  EXPECT_THROW(loop_ir_spec(0), CheckError);
  EXPECT_THROW(loop_ir_spec(25), CheckError);
}

TEST(LoopIr, DoacrossLoopsHaveFigure3Structure) {
  for (const int k : {3, 4, 17}) {
    const auto& spec = loop_ir_spec(k);
    EXPECT_EQ(spec.distance, 1) << "kernel " << k;
    EXPECT_FALSE(spec.guarded.empty());
  }
  // Loops 3 and 4: the guarded update is compiler-generated (untraced);
  // loop 17's guarded region contains source statements (traced).
  EXPECT_FALSE(loop_ir_spec(3).guarded[0].traced);
  EXPECT_FALSE(loop_ir_spec(4).guarded[0].traced);
  for (const auto& s : loop_ir_spec(17).guarded) EXPECT_TRUE(s.traced);
  EXPECT_GE(loop_ir_spec(17).guarded.size(), 3u);
}

TEST(LoopIr, SequentialProgramsSimulateCleanly) {
  const sim::MachineConfig cfg{.num_procs = 1};
  for (int k = 1; k <= kNumKernels; ++k) {
    const auto prog = make_sequential_ir(k, 64);
    const auto t = sim::simulate_actual(cfg, prog, "t");
    EXPECT_GT(t.total_time(), 0) << "kernel " << k;
    EXPECT_TRUE(trace::validate(t).empty()) << "kernel " << k;
  }
}

TEST(LoopIr, ConcurrentProgramsSimulateCleanly) {
  const sim::MachineConfig cfg{.num_procs = 4};
  for (int k = 1; k <= kNumKernels; ++k) {
    const auto prog = make_concurrent_ir(k, 64);
    const auto t = sim::simulate_actual(cfg, prog, "t");
    const auto violations = trace::validate(t);
    EXPECT_TRUE(violations.empty())
        << "kernel " << k << ": " << trace::describe(violations);
  }
}

TEST(LoopIr, DoacrossProgramsEmitSyncEvents) {
  const sim::MachineConfig cfg{.num_procs = 4};
  for (const int k : {3, 4, 17}) {
    const auto prog = make_concurrent_ir(k, 32);
    const auto t = sim::simulate_actual(cfg, prog, "t");
    std::size_t advances = 0;
    std::size_t awaits = 0;
    for (const auto& e : t) {
      advances += e.kind == trace::EventKind::kAdvance ? 1 : 0;
      awaits += e.kind == trace::EventKind::kAwaitEnd ? 1 : 0;
    }
    EXPECT_EQ(advances, 32u) << "kernel " << k;
    EXPECT_EQ(awaits, 31u);  // distance 1: first iteration skips
  }
}

TEST(LoopIr, ConcurrentSpeedsUpParallelizableKernels) {
  const auto prog = make_concurrent_ir(1, 128);
  const auto seq = make_sequential_ir(1, 128);
  const sim::MachineConfig cfg8{.num_procs = 8};
  const sim::MachineConfig cfg1{.num_procs = 1};
  const auto t_par = sim::simulate_actual(cfg8, prog, "par");
  const auto t_seq = sim::simulate_actual(cfg1, seq, "seq");
  EXPECT_LT(t_par.total_time() * 4, t_seq.total_time());
}

TEST(LoopIr, UnparallelizableKernelFallsBackToSequential) {
  // Kernel 5 (tri-diagonal) is marked neither parallelizable nor DOACROSS.
  const auto prog = make_concurrent_ir(5, 64);
  const sim::MachineConfig cfg{.num_procs = 4};
  const auto t = sim::simulate_actual(cfg, prog, "t");
  for (const auto& e : t) EXPECT_EQ(e.proc, 0);  // runs on the master only
}

TEST(LoopIr, SpreadVariesIterationCostsDeterministically) {
  // Loop 17's statements have spread > 0: per-iteration costs differ but are
  // identical across runs.
  const auto p1 = make_concurrent_ir(17, 32);
  const auto p2 = make_concurrent_ir(17, 32);
  const sim::MachineConfig cfg{.num_procs = 2};
  const auto t1 = sim::simulate_actual(cfg, p1, "t");
  const auto t2 = sim::simulate_actual(cfg, p2, "t");
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) EXPECT_EQ(t1[i], t2[i]);

  // And the costs genuinely vary across iterations.
  std::set<trace::Tick> durations;
  trace::Tick enter = 0;
  for (const auto& e : t1) {
    if (e.kind == trace::EventKind::kStmtEnter && e.id == 3) enter = e.time;
    if (e.kind == trace::EventKind::kStmtExit && e.id == 3)
      durations.insert(e.time - enter);
  }
  EXPECT_GT(durations.size(), 4u);
}

}  // namespace
}  // namespace perturb::loops
