// Golden digests: 64-bit FNV-1a fingerprints of a simulated trace, of a
// TraceIndex's answers and of an event-based reconstruction, so a
// bit-identity contract can be pinned against a committed table instead of
// a slower copy of the algorithm kept alive to compare against.
//
// Every value is folded in as a fixed-width integer, field by field.  Raw
// struct bytes are never hashed: Event has tail padding whose contents are
// unspecified, so two equal traces could otherwise digest differently.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/eventbased.hpp"
#include "trace/index.hpp"
#include "trace/trace.hpp"

namespace perturb::trace {

/// FNV-1a over the little-endian bytes of each added 64-bit word.
class Fnv64 {
 public:
  void add(std::uint64_t v) noexcept {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add_signed(std::int64_t v) noexcept {
    add(static_cast<std::uint64_t>(v));
  }
  /// Length-prefixed, so adjacent lists cannot trade elements unnoticed.
  template <typename C>
  void add_list(const C& c) {
    add(c.size());
    for (const auto v : c) add(static_cast<std::uint64_t>(v));
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// The event count, then every event's six fields in trace order.
inline std::uint64_t trace_digest(const Trace& t) {
  Fnv64 h;
  h.add(t.size());
  for (const Event& e : t) {
    h.add_signed(e.time);
    h.add(static_cast<std::uint64_t>(e.kind));
    h.add(e.id);
    h.add(e.object);
    h.add(e.proc);
    h.add_signed(e.payload);
  }
  return h.value();
}

/// Every answer a TraceIndex gives about `t`: per-event chains and
/// dependencies, per-processor event lists, duplicate advances, loop and
/// iteration spans, the advance / awaitB / semaphore-release tables probed
/// through every event's key, and the barrier episodes.
inline std::uint64_t index_digest(const TraceIndex& idx, const Trace& t) {
  Fnv64 h;
  h.add(idx.size());
  h.add(idx.num_procs());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    h.add(idx.prev_on_proc(i));
    h.add(idx.fork_dep(i));
    h.add(idx.lock_dep(i));
    h.add(idx.sem_ordinal(i));
  }
  for (std::size_t p = 0; p < idx.num_procs(); ++p)
    h.add_list(idx.events_of(static_cast<ProcId>(p)));
  h.add_list(idx.duplicate_advances());

  h.add(idx.loops().size());
  for (const auto& l : idx.loops()) {
    h.add(l.begin_index);
    h.add(l.end_index);
    h.add(l.object);
    h.add(l.proc);
  }
  h.add(idx.iterations().size());
  for (const auto& it : idx.iterations()) {
    h.add(it.begin_index);
    h.add(it.end_index);
    h.add_signed(it.iteration);
  }

  for (const Event& e : t) {
    const SyncKey key{e.object, e.payload};
    h.add_list(idx.advances(key));
    h.add_list(idx.await_begins(key, e.proc));
    h.add_list(idx.sem_releases(e.object));
  }

  h.add(idx.barrier_episodes().size());
  for (const auto& ep : idx.barrier_episodes()) {
    h.add(ep.key.object);
    h.add_signed(ep.key.index);
    h.add_list(ep.arrivals);
    h.add_list(ep.departs);
  }
  return h.value();
}

/// An event-based reconstruction: the approximated trace's digest, then
/// the waiting classification.
inline std::uint64_t approx_digest(const core::EventBasedResult& r) {
  Fnv64 h;
  h.add(trace_digest(r.approx));
  h.add(r.awaits_total);
  h.add(r.waits_measured);
  h.add(r.waits_approx);
  h.add(r.waits_removed);
  h.add(r.waits_introduced);
  return h.value();
}

}  // namespace perturb::trace
