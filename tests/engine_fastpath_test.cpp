// Bit-identity tests for the simulation engine: every trace simulate()
// produces (sealed NullInstrumentation / cost-table dispatch, the virtual
// fallback for other hooks, per-processor event arenas, flat ready
// selection, indexed waiter wakes) must digest to the committed golden
// value for its input — across the Livermore suite, execution modes,
// schedules, hook configurations, machine sizes that cross the waiter-index
// threshold, fuzzed random programs, and the synthesized workload families.
// The inputs live in golden_cases.hpp, the digests in golden_digests.hpp.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "golden_cases.hpp"
#include "golden_digests.hpp"
#include "sim/engine.hpp"
#include "trace_digest.hpp"

namespace perturb::sim {
namespace {

using golden::EngineGroup;
using trace::Trace;
using trace::trace_digest;

/// The committed digest for `label`; fails the test when there is none.
std::uint64_t golden_digest(const std::string& label) {
  for (const golden::Digest& d : golden::kEngineDigests)
    if (label == d.label) return d.value;
  ADD_FAILURE() << "no golden digest for " << label;
  return 0;
}

void expect_group_matches_golden(EngineGroup group) {
  golden::for_each_engine_case(
      group, [](const std::string& label, const MachineConfig& cfg,
                const Program& program, const InstrumentationHook& hook) {
        const Trace t = simulate(cfg, program, hook, label);
        EXPECT_EQ(trace_digest(t), golden_digest(label))
            << label << " (" << t.size() << " events)";
      });
}

TEST(EngineFastPath, LivermoreSuiteNullInstrumentation) {
  expect_group_matches_golden(EngineGroup::kLivermoreNull);
}

TEST(EngineFastPath, LivermoreSuiteCostTablePlans) {
  expect_group_matches_golden(EngineGroup::kLivermorePlans);
}

TEST(EngineFastPath, AllSchedules) {
  expect_group_matches_golden(EngineGroup::kSchedules);
}

TEST(EngineFastPath, SiteFilterAndStmtExitVariants) {
  expect_group_matches_golden(EngineGroup::kPlanVariants);
}

// A hook that is neither NullInstrumentation nor a CostTableHook takes the
// virtual-dispatch instantiation inside simulate().
TEST(EngineFastPath, CustomVirtualHookFallback) {
  expect_group_matches_golden(EngineGroup::kCustomHook);
}

// Wake order must not change when the indexed waiter lookup engages.
TEST(EngineFastPath, ManyWaitersCrossIndexThreshold) {
  expect_group_matches_golden(EngineGroup::kManyWaiters);
}

TEST(EngineFastPath, FuzzedProgramsAllHooks) {
  expect_group_matches_golden(EngineGroup::kFuzz);
}

// Five workload families x 2 seeds x {1, 2, 8} processors, actual and
// measured; bursty's InterferenceHook runs the virtual-hook instantiation.
TEST(EngineFastPath, GeneratedWorkloads) {
  expect_group_matches_golden(EngineGroup::kWorkloads);
}

TEST(EngineFastPath, GoldenTableCoversEveryCaseOnce) {
  std::set<std::string> labels;
  for (const EngineGroup group : golden::kEngineGroups)
    golden::for_each_engine_case(
        group, [&](const std::string& label, const MachineConfig&,
                   const Program&, const InstrumentationHook&) {
          EXPECT_TRUE(labels.insert(label).second) << "duplicate " << label;
        });
  std::set<std::string> table;
  for (const golden::Digest& d : golden::kEngineDigests)
    EXPECT_TRUE(table.insert(d.label).second) << "duplicate row " << d.label;
  EXPECT_EQ(labels, table);
}

// The digest sees every field of every event: a one-tick change anywhere
// changes it.
TEST(TraceDigest, OneTickChangeToAnyEventChangesDigest) {
  const Trace base = simulate(golden::machine(4),
                              loops::make_concurrent_ir(3, 20),
                              golden::full_plan(), "digest");
  const std::uint64_t d0 = trace_digest(base);
  EXPECT_EQ(trace_digest(Trace(base)), d0);
  for (std::size_t i = 0; i < base.size(); ++i) {
    for (int field = 0; field < 6; ++field) {
      Trace t = base;
      trace::Event& e = t.events()[i];
      switch (field) {
        case 0: ++e.time; break;
        case 1: ++e.payload; break;
        case 2: ++e.id; break;
        case 3: ++e.object; break;
        case 4: ++e.proc; break;
        case 5:
          e.kind = static_cast<trace::EventKind>(static_cast<int>(e.kind) + 1);
          break;
      }
      EXPECT_NE(trace_digest(t), d0) << "event " << i << " field " << field;
    }
  }
  Trace shorter = base;
  shorter.events().pop_back();
  EXPECT_NE(trace_digest(shorter), d0);
}

}  // namespace
}  // namespace perturb::sim
