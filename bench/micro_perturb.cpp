// Google-benchmark micro-suite: throughput of the building blocks —
// simulation, trace handling, and both perturbation analyses — plus the
// real-threads tracer's per-event recording cost (the α this library exists
// to compensate for).
#include <benchmark/benchmark.h>

#include <map>
#include <sstream>
#include <vector>

#include "core/eventbased.hpp"
#include "core/timebased.hpp"
#include "experiments/experiments.hpp"
#include "loops/kernels.hpp"
#include "loops/programs.hpp"
#include "rt/tracer.hpp"
#include "support/crc32.hpp"
#include "trace/index.hpp"
#include "trace/io.hpp"
#include "trace/validate.hpp"

namespace {

using namespace perturb;

experiments::Setup default_setup() { return experiments::Setup{}; }

void BM_SimulateActualLoop17(benchmark::State& state) {
  const auto prog = loops::make_concurrent_ir(17, state.range(0));
  const auto setup = default_setup();
  for (auto _ : state) {
    auto t = sim::simulate_actual(setup.machine, prog, "bench");
    benchmark::DoNotOptimize(t.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulateActualLoop17)->Arg(256)->Arg(1024);

void BM_SimulateMeasuredLoop17(benchmark::State& state) {
  const auto prog = loops::make_concurrent_ir(17, state.range(0));
  const auto setup = default_setup();
  const auto plan =
      experiments::make_plan(experiments::PlanKind::kFull, setup);
  for (auto _ : state) {
    auto t = sim::simulate(setup.machine, prog, plan, "bench");
    benchmark::DoNotOptimize(t.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulateMeasuredLoop17)->Arg(256)->Arg(1024);

void BM_TimeBasedAnalysis(benchmark::State& state) {
  const auto prog = loops::make_concurrent_ir(17, state.range(0));
  const auto setup = default_setup();
  const auto plan = experiments::make_plan(experiments::PlanKind::kFull, setup);
  const auto ov = experiments::overheads_for(plan, setup.machine);
  const auto measured = sim::simulate(setup.machine, prog, plan, "bench");
  for (auto _ : state) {
    auto approx = core::time_based_approximation(measured, ov);
    benchmark::DoNotOptimize(approx.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(measured.size()));
}
BENCHMARK(BM_TimeBasedAnalysis)->Arg(256)->Arg(1024);

void BM_EventBasedAnalysis(benchmark::State& state) {
  const auto prog = loops::make_concurrent_ir(17, state.range(0));
  const auto setup = default_setup();
  const auto plan = experiments::make_plan(experiments::PlanKind::kFull, setup);
  const auto ov = experiments::overheads_for(plan, setup.machine);
  const auto measured = sim::simulate(setup.machine, prog, plan, "bench");
  for (auto _ : state) {
    auto result = core::event_based_approximation(measured, ov);
    benchmark::DoNotOptimize(result.approx.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(measured.size()));
}
BENCHMARK(BM_EventBasedAnalysis)->Arg(256)->Arg(1024);

void BM_EventBasedAnalysisIndexed(benchmark::State& state) {
  const auto prog = loops::make_concurrent_ir(17, state.range(0));
  const auto setup = default_setup();
  const auto plan = experiments::make_plan(experiments::PlanKind::kFull, setup);
  const auto ov = experiments::overheads_for(plan, setup.machine);
  const auto measured = sim::simulate(setup.machine, prog, plan, "bench");
  const trace::TraceIndex index(measured);
  for (auto _ : state) {
    auto result = core::event_based_approximation(index, ov);
    benchmark::DoNotOptimize(result.approx.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(measured.size()));
}
BENCHMARK(BM_EventBasedAnalysisIndexed)->Arg(256)->Arg(1024);

void BM_TraceIndexBuild(benchmark::State& state) {
  const auto prog = loops::make_concurrent_ir(17, state.range(0));
  const auto setup = default_setup();
  const auto plan = experiments::make_plan(experiments::PlanKind::kFull, setup);
  const auto measured = sim::simulate(setup.machine, prog, plan, "bench");
  for (auto _ : state) {
    trace::TraceIndex index(measured);
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(measured.size()));
}
BENCHMARK(BM_TraceIndexBuild)->Arg(256)->Arg(1024);

/// Collects every advance key of a trace, in trace order.
std::vector<trace::SyncKey> advance_keys(const trace::Trace& t) {
  std::vector<trace::SyncKey> keys;
  for (const auto& e : t)
    if (e.kind == trace::EventKind::kAdvance)
      keys.push_back({e.object, e.payload});
  return keys;
}

// Sync-table cost per analysis pass: the shared TraceIndex's flat sorted
// arrays (built once per trace, queried by every analyzer) vs the private
// std::map each analysis used to rebuild before querying.  Same queries,
// same answers; the map variant pays the rebuild because that is what every
// pass paid before the index existed.
void BM_SyncLookupFlat(benchmark::State& state) {
  const auto prog = loops::make_concurrent_ir(17, state.range(0));
  const auto setup = default_setup();
  const auto plan = experiments::make_plan(experiments::PlanKind::kFull, setup);
  const auto measured = sim::simulate(setup.machine, prog, plan, "bench");
  const trace::TraceIndex index(measured);
  const auto keys = advance_keys(measured);
  for (auto _ : state) {
    std::size_t sum = 0;
    for (const auto& key : keys) sum += index.last_advance(key);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_SyncLookupFlat)->Arg(256)->Arg(1024);

void BM_SyncLookupMap(benchmark::State& state) {
  const auto prog = loops::make_concurrent_ir(17, state.range(0));
  const auto setup = default_setup();
  const auto plan = experiments::make_plan(experiments::PlanKind::kFull, setup);
  const auto measured = sim::simulate(setup.machine, prog, plan, "bench");
  const auto keys = advance_keys(measured);
  for (auto _ : state) {
    std::map<std::pair<trace::ObjectId, std::int64_t>, std::size_t> table;
    for (std::size_t i = 0; i < measured.size(); ++i)
      if (measured[i].kind == trace::EventKind::kAdvance)
        table[{measured[i].object, measured[i].payload}] = i;
    std::size_t sum = 0;
    for (const auto& key : keys)
      sum += table.find({key.object, key.index})->second;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_SyncLookupMap)->Arg(256)->Arg(1024);

void BM_TraceValidate(benchmark::State& state) {
  const auto prog = loops::make_concurrent_ir(17, state.range(0));
  const auto setup = default_setup();
  const auto t = sim::simulate_actual(setup.machine, prog, "bench");
  for (auto _ : state) {
    auto violations = trace::validate(t);
    benchmark::DoNotOptimize(violations.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_TraceValidate)->Arg(1024);

void BM_TraceBinaryRoundtrip(benchmark::State& state) {
  const auto prog = loops::make_concurrent_ir(17, 512);
  const auto setup = default_setup();
  const auto t = sim::simulate_actual(setup.machine, prog, "bench");
  for (auto _ : state) {
    std::ostringstream ss;
    trace::write_binary(ss, t);
    const std::string image = std::move(ss).str();
    auto back = trace::read_binary(image.data(), image.size());
    benchmark::DoNotOptimize(back.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_TraceBinaryRoundtrip);

/// One binary v2 image of a measured loop-17 trace, for the read-path
/// benchmark below.
const std::string& binary_image() {
  static const std::string image = [] {
    const auto prog = loops::make_concurrent_ir(17, 2048);
    const auto setup = default_setup();
    const auto plan =
        experiments::make_plan(experiments::PlanKind::kFull, setup);
    const auto t = sim::simulate(setup.machine, prog, plan, "bench");
    std::stringstream ss;
    trace::write_binary(ss, t);
    return std::move(ss).str();
  }();
  return image;
}

// CRC + fixed-width decode straight into the trace's pre-sized storage.
void BM_TraceBinaryReadBuffer(benchmark::State& state) {
  const std::string& image = binary_image();
  std::size_t events = 0;
  for (auto _ : state) {
    auto t = trace::read_binary(image.data(), image.size());
    events = t.size();
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_TraceBinaryReadBuffer);

void BM_Crc32Throughput(benchmark::State& state) {
  const std::vector<char> buf(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(support::crc32(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Crc32Throughput)->Arg(1 << 12)->Arg(1 << 20);

void BM_RtTracerRecord(benchmark::State& state) {
  rt::Tracer tracer(1, 1u << 22);
  std::uint64_t i = 0;
  for (auto _ : state) {
    tracer.record(0, trace::EventKind::kStmtEnter, 1, 0,
                  static_cast<std::int64_t>(i++));
    if (i % (1u << 21) == 0) tracer.harvest("drain");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RtTracerRecord);

void BM_NativeKernel(benchmark::State& state) {
  loops::LfkData data(1001);
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(loops::run_kernel(k, data));
  }
}
BENCHMARK(BM_NativeKernel)->Arg(3)->Arg(4)->Arg(17);

}  // namespace

BENCHMARK_MAIN();
