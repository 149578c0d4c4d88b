#include "core/liberal.hpp"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>

#include "sim/ir.hpp"
#include "support/check.hpp"
#include "support/text.hpp"

namespace perturb::core {

namespace {

using trace::Event;
using trace::EventKind;
using trace::ProcId;
using trace::Trace;
using trace::TraceIndex;

constexpr std::int64_t kPairStride = std::int64_t{1} << 32;

}  // namespace

DoacrossShape extract_doacross_shape(const TraceIndex& index,
                                     const AnalysisOverheads& ov,
                                     const sim::MachineConfig& replay) {
  const Trace& measured = index.trace();
  PERTURB_CHECK_MSG(index.loops().size() <= 1,
                    "liberal analysis supports a single parallel loop");
  PERTURB_CHECK_MSG(!index.loops().empty(),
                    "no parallel loop in measured trace");

  DoacrossShape shape;
  shape.loop_object = index.loops().front().object;
  std::int64_t trip_hint = -1;

  enum class Segment { kOutside, kPre, kWaiting, kChain, kPost };
  std::unordered_map<std::int64_t, IterationShape> done;
  bool have_distance = false;

  // The segment state machine and the de-instrumented gaps are both
  // per-processor, so each processor's chain is walked independently.
  for (std::size_t p = 0; p < index.num_procs(); ++p) {
    Segment segment = Segment::kOutside;
    IterationShape current;

    auto finish = [&]() {
      PERTURB_CHECK_MSG(!done.count(current.iteration),
                        "iteration executed twice in measured trace");
      done[current.iteration] = current;
      segment = Segment::kOutside;
    };

    for (const std::size_t i : index.events_of(static_cast<ProcId>(p))) {
      const Event& e = measured[i];
      const std::size_t prev = index.prev_on_proc(i);
      const Tick gap_raw = prev == TraceIndex::npos
                               ? 0
                               : e.time - measured[prev].time;
      Tick gap = gap_raw - ov.probe_for(e.kind);
      if (gap < 0) gap = 0;

      auto add_gap = [&](Cycles amount) {
        switch (segment) {
          case Segment::kPre: current.pre += amount; break;
          case Segment::kChain: current.chain += amount; break;
          case Segment::kPost: current.post += amount; break;
          default: break;
        }
      };

      switch (e.kind) {
        case EventKind::kIterBegin:
          if (e.object != shape.loop_object) break;
          current = IterationShape{};
          current.iteration = e.payload;
          segment = Segment::kPre;
          trip_hint = std::max(trip_hint, e.payload + 1);
          break;
        case EventKind::kIterEnd:
          if (segment == Segment::kOutside) break;
          add_gap(gap);
          finish();
          break;
        case EventKind::kAwaitBegin: {
          if (segment == Segment::kOutside) break;
          PERTURB_CHECK_MSG(segment == Segment::kPre,
                            "multiple awaits per iteration unsupported");
          add_gap(gap);  // arrival at the await ends the pre segment
          current.has_await = true;
          const std::int64_t idx = e.payload % kPairStride;
          const std::int64_t d = current.iteration - idx;
          PERTURB_CHECK_MSG(d > 0, "non-forward dependence in measured trace");
          if (have_distance) {
            PERTURB_CHECK_MSG(d == shape.distance,
                              "non-constant dependence distance");
          } else {
            shape.distance = d;
            have_distance = true;
          }
          segment = Segment::kWaiting;
          break;
        }
        case EventKind::kAwaitEnd:
          if (segment == Segment::kOutside) break;
          // waiting + synchronization processing: excluded from work
          segment = Segment::kChain;
          break;
        case EventKind::kAdvance:
          if (segment == Segment::kOutside) break;
          // The gap ends with the advance operation itself, which the
          // replay machine re-adds; the rest is untraced work of the current
          // segment (a compiler-generated guarded update between awaitE and
          // advance).  An advance with no preceding await (first d
          // iterations) ends the pre segment.
          add_gap(std::max<Tick>(0, gap - replay.advance_cost));
          current.has_advance = true;
          segment = Segment::kPost;
          break;
        default:
          add_gap(gap);
          break;
      }
    }
  }

  PERTURB_CHECK_MSG(trip_hint > 0, "no iterations observed");
  shape.iterations.resize(static_cast<std::size_t>(trip_hint));
  for (std::int64_t i = 0; i < trip_hint; ++i) {
    const auto it = done.find(i);
    PERTURB_CHECK_MSG(it != done.end(),
                      support::strf("iteration %lld missing from trace",
                                    static_cast<long long>(i)));
    shape.iterations[static_cast<std::size_t>(i)] = it->second;
  }
  return shape;
}

DoacrossShape extract_doacross_shape(const Trace& measured,
                                     const AnalysisOverheads& ov,
                                     const sim::MachineConfig& replay) {
  const TraceIndex index(measured);
  return extract_doacross_shape(index, ov, replay);
}

sim::Program lower_doacross_shape(const DoacrossShape& shape,
                                  sim::Schedule schedule) {
  const auto iters =
      std::make_shared<const std::vector<IterationShape>>(shape.iterations);
  const auto trip = static_cast<std::int64_t>(iters->size());
  PERTURB_CHECK(trip > 0);

  bool any_advance = false;
  bool any_await = false;
  for (const auto& it : *iters) {
    any_advance |= it.has_advance;
    any_await |= it.has_await;
  }

  sim::Program prog;
  sim::Block body;
  body.nodes.push_back(sim::compute_fn("pre", [iters](std::int64_t i) {
    return (*iters)[static_cast<std::size_t>(i)].pre;
  }));
  if (any_advance) {
    const auto var = prog.declare_sync_var("A");
    if (any_await) {
      PERTURB_CHECK_MSG(shape.distance > 0, "await without distance");
      body.nodes.push_back(sim::await(var, {1, -shape.distance}));
    }
    body.nodes.push_back(sim::compute_fn("chain", [iters](std::int64_t i) {
      return (*iters)[static_cast<std::size_t>(i)].chain;
    }));
    body.nodes.push_back(sim::advance(var, {1, 0}));
  }
  body.nodes.push_back(sim::compute_fn("post", [iters](std::int64_t i) {
    return (*iters)[static_cast<std::size_t>(i)].post;
  }));

  prog.root().nodes.push_back(sim::par_loop(
      "liberal-replay",
      any_advance ? sim::LoopKind::kDoacross : sim::LoopKind::kDoall,
      schedule, trip, std::move(body)));
  prog.finalize();
  return prog;
}

LiberalResult liberal_approximation(const DoacrossShape& shape,
                                    const LiberalOptions& options) {
  const sim::Program prog = lower_doacross_shape(shape, options.schedule);
  return summarize_loop(
      sim::simulate_actual(options.machine, prog, "liberal-replay"));
}

LiberalResult summarize_loop(Trace trace) {
  LiberalResult result;
  result.approx = std::move(trace);
  Tick begin = 0;
  Tick end = 0;
  for (const Event& e : result.approx) {
    if (e.kind == EventKind::kLoopBegin) begin = e.time;
    if (e.kind == EventKind::kLoopEnd) end = e.time;
    if (e.kind != EventKind::kIterBegin) continue;
    const auto iteration = static_cast<std::size_t>(e.payload);
    if (iteration >= result.iteration_to_proc.size())
      result.iteration_to_proc.resize(iteration + 1, 0);
    result.iteration_to_proc[iteration] = e.proc;
  }
  result.loop_time = end - begin;
  return result;
}

}  // namespace perturb::core
