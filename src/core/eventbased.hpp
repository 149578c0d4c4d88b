// Event-based perturbation analysis (§4).
//
// Conservative constructive reconstruction: events are resolved per
// processor in measured order, but synchronization events are re-timed from
// their *dependency* sources rather than from elapsed measured time, using
// the paper's advance/await formulae (§4.2.3):
//
//   t_a(advance) = t_a(u) + t_m(advance) - t_m(u) - alpha
//   t_a(awaitB)  = t_a(v) + t_m(awaitB)  - t_m(v) - beta
//   t_a(awaitE)  = t_a(awaitB) + s_nowait          if t_a(advance) <= t_a(awaitB)
//   t_a(awaitE)  = t_a(advance) + s_wait           otherwise
//
// plus the analogous barrier model (departure = max approximated arrival +
// overhead) and a conservative lock model that preserves the measured
// acquisition order.  Synchronization waiting that existed only because of
// instrumentation intrusion disappears in the approximation, and waiting
// that instrumentation masked reappears (Figure 2) — the two corrections
// time-based analysis cannot make.
//
// The result is a *conservative approximation*: a feasible execution whose
// total order of dependent events matches the measured one (§4.1).
//
// Two entry points share one retiming body, so each dependency rule is
// written once: event_based_approximation() answers every event's
// dependencies from the trace's TraceIndex (the analyst path), and
// StreamingReconstructor answers them from small lookaside records kept as
// the trace streams by: its queues hold O(resident) events and its
// lookasides O(sync sources) records, an advance costing an 8-byte record
// and a 16-byte table slot at a load of at most 7/8.  Both emit the
// approximated trace through the same (t_a, measured index) merge of
// per-processor chains, and both diagnose a dependency cycle with the same
// CheckError.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/overheads.hpp"
#include "trace/index.hpp"
#include "trace/trace.hpp"

namespace perturb::core {

struct EventBasedOptions {
  /// Re-time lock acquisitions with the conservative hand-off model
  /// (preserving measured acquisition order).  When false, lock events are
  /// treated like ordinary statements (time-based).
  bool model_locks = true;
  /// Re-time barrier departures from approximated arrivals.
  bool model_barriers = true;
  /// Counting-semaphore capacities by object id (external knowledge, like
  /// the paper's scheduling information): the k-th acquisition of a
  /// capacity-c semaphore depends on the (k-c)-th release in measured order.
  /// Semaphores without an entry fall back to the time-based rule.
  std::map<trace::ObjectId, std::int64_t> semaphore_capacity;
};

struct EventBasedResult {
  trace::Trace approx;

  // Waiting classification across the awaitE events (Figure 2's two cases).
  std::size_t awaits_total = 0;
  std::size_t waits_measured = 0;    ///< awaits that waited in the measurement
  std::size_t waits_approx = 0;      ///< awaits that wait in the approximation
  std::size_t waits_removed = 0;     ///< measured wait, approximated no-wait
  std::size_t waits_introduced = 0;  ///< measured no-wait, approximated wait
};

/// Runs event-based perturbation analysis on a measured trace.  The trace
/// must be happened-before consistent (see trace::validate); throws
/// CheckError if the dependency resolution cannot make progress.
EventBasedResult event_based_approximation(const trace::Trace& measured,
                                           const AnalysisOverheads& overheads,
                                           const EventBasedOptions& options = {});

/// Same analysis over a pre-built index of the measured trace (the pipeline
/// builds the TraceIndex once and shares it across all analyzers).
EventBasedResult event_based_approximation(const trace::TraceIndex& index,
                                           const AnalysisOverheads& overheads,
                                           const EventBasedOptions& options = {});

// ---- streaming (windowed) reconstruction ---------------------------------

/// One re-timed event spilled by the streaming reconstructor: the measured
/// event with its time replaced by the approximated time, plus its index in
/// the measured trace (the merge tie-breaker).
struct RetimedEvent {
  trace::Event event;
  std::size_t index = 0;
};

/// Receives completed per-processor segments as the streaming reconstructor
/// retires events.  Within one processor, segments arrive in trace order
/// with nondecreasing times; across processors, no order is guaranteed.
class StreamSink {
 public:
  virtual ~StreamSink() = default;
  virtual void on_segment(trace::ProcId proc, const RetimedEvent* events,
                          std::size_t n) = 0;
};

/// Sink that keeps every segment and merges the per-processor chains into a
/// full approximated trace — the same (t_a, measured index) k-way merge the
/// batch reconstructor performs, so the result is bit-identical to it.
class CollectSink final : public StreamSink {
 public:
  void on_segment(trace::ProcId proc, const RetimedEvent* events,
                  std::size_t n) override;

  /// Events collected so far.
  std::size_t size() const noexcept;

  /// Merges into the approximated trace ("<name>/event-based", like the
  /// batch reconstructor) and resets the sink.
  trace::Trace take(const trace::TraceInfo& measured_info);

 private:
  std::vector<std::vector<RetimedEvent>> chains_;  ///< by processor
};

/// Windowed event-based reconstructor: consumes the measured trace in
/// chunks, resolves events with the batch reconstructor's retiming body
/// retire-as-you-go, and spills completed per-processor segments to a
/// StreamSink.  Memory is O(resident events + sync sources): the resident
/// events (about the window) and one record per advance, lock or semaphore
/// release, loop and barrier episode, and outstanding await-begin.
/// Ingesting, draining and spilling allocate only when a queue or a
/// lookaside outgrows its storage.
///
/// Equivalence contract: on a happened-before-consistent trace — at most
/// one advance per sync key, await-begins preceding their await-ends, and
/// barrier arrivals preceding the episode's departures, all guaranteed by
/// trace::validate and preserved under prefix truncation — the spilled
/// events carry exactly the approximated times the batch reconstructor
/// assigns, and CollectSink::take reproduces its output trace bit for bit.
/// Missing partner events (a truncated advance, an over-capacity semaphore
/// release that never arrives) resolve at finish() with the batch
/// reconstructor's same fallback rules.
///
/// The window is a drain threshold, not a hard cap: events blocked on an
/// unresolved dependency stay resident past it until the dependency
/// resolves (or finish()), so adversarial traces degrade to batch memory
/// instead of producing wrong answers.
class StreamingReconstructor {
 public:
  StreamingReconstructor(const AnalysisOverheads& overheads,
                         const EventBasedOptions& options, std::size_t window,
                         StreamSink& sink);
  ~StreamingReconstructor();

  StreamingReconstructor(const StreamingReconstructor&) = delete;
  StreamingReconstructor& operator=(const StreamingReconstructor&) = delete;

  /// Ingests the next events in measured trace order.
  void push(const trace::Event* events, std::size_t n);
  void push(const std::vector<trace::Event>& events) {
    push(events.data(), events.size());
  }

  /// Resolves everything still pending (applying end-of-stream fallbacks
  /// for partners that never arrived), flushes the sink, and returns the
  /// waiting-classification stats (`approx` is left empty — it lives in the
  /// sink).  Throws CheckError with the batch reconstructor's deadlock
  /// diagnosis if unresolvable events remain.
  EventBasedResult finish();

  // Observability: drain passes run, segments spilled, and the high-water
  // mark of resident (ingested, not yet retired) events.
  std::uint64_t windows_processed() const noexcept;
  std::uint64_t segments_spilled() const noexcept;
  std::size_t resident_high_water() const noexcept;
  std::uint64_t events_pushed() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace perturb::core
