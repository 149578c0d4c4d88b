// TraceIndex: one immutable index of a trace, shared by every analysis.
//
// Each analyzer used to rebuild its own per-processor chains, advance/await
// pairings, lock hand-off order, barrier episodes, and loop spans with
// private std::map scans.  The index is built once per trace by one
// per-event transition (IncrementalTraceIndex::append) followed by one sort
// per flat synchronization table (skipped when the table arrived in key
// order); a whole-trace build runs the same transition over every event
// with its tables presized, and a streaming load runs it chunk by chunk.
// It answers the structural queries all the analyses need:
//
//   * per-processor event ranges and previous-event chains,
//   * fork dependencies (a processor's first event inside a parallel-loop
//     episode is caused by the loop's spawn; ForkScan is that rule's
//     transition, shared with the streaming reconstructor),
//   * advance / awaitB occurrence lists per synchronization key (flat sorted
//     tables, duplicates preserved in trace order),
//   * each awaitE's partners: the advance it waited for, resolved once
//     while the index is built, and its awaitB,
//   * lock hand-off order (each acquire's preceding release),
//   * counting-semaphore acquire ordinals and release sequences,
//   * barrier episodes (arrivals/departures per (object, episode)),
//   * parallel-loop and iteration marker spans,
//
// and for_each_cross_dep enumerates an event's cross-processor dependencies
// from them, the one statement of those rules the analyses share.
//
// The index never interprets times or applies analysis models; it only
// records structure, so conservative, liberal, validation, and post-analysis
// passes can all share it.  It holds a reference to the trace: the trace
// must outlive the index and must not be mutated while indexed.
//
// Footprint.  The per-event tables (same-processor chain, fork, lock,
// semaphore and awaited-advance dependencies, per-processor event lists) and
// the sync tables' index columns store 32-bit trace indices, 4 B per entry,
// and the accessors widen them back to size_t (npos maps both ways).  A
// trace therefore holds fewer than 2^32 - 1 events; the builder rejects a
// longer one with a CheckError.  The fork, lock, semaphore and
// awaited-advance tables are allocated only when the trace has an entry for
// them (a loop-spawned first event, a handed-off lock acquisition, a
// semaphore acquisition, an awaitE with an earlier advance); until then
// they stay empty and answer npos.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace/event.hpp"
#include "trace/trace.hpp"

namespace perturb::support {
class TaskPool;
}  // namespace perturb::support

namespace perturb::trace {

class TraceIndex {
 public:
  /// "No event": returned by every lookup that can miss.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Exclusive upper bound on a trace's length: per-event tables hold
  /// 32-bit indices and reserve the all-ones value for npos.
  static constexpr std::size_t kMaxEvents = 0xffffffffu;

  /// Throws CheckError (one line) when `events` >= kMaxEvents.  The
  /// builder calls it before it indexes an event.
  static void require_indexable(std::size_t events);

  /// Ascending trace indices of one key's occurrences (a view into the
  /// 32-bit index column of the index's flat sorted tables).
  class IndexRange {
   public:
    IndexRange() = default;
    IndexRange(const std::uint32_t* b, const std::uint32_t* e)
        : b_(b), e_(e) {}
    const std::uint32_t* begin() const noexcept { return b_; }
    const std::uint32_t* end() const noexcept { return e_; }
    std::size_t size() const noexcept { return static_cast<std::size_t>(e_ - b_); }
    bool empty() const noexcept { return b_ == e_; }
    std::size_t front() const noexcept { return *b_; }
    std::size_t back() const noexcept { return *(e_ - 1); }

   private:
    const std::uint32_t* b_ = nullptr;
    const std::uint32_t* e_ = nullptr;
  };

  /// One parallel-loop episode: LoopBegin event, matching LoopEnd (npos when
  /// the trace is truncated mid-loop), and the spawning processor.
  struct LoopSpan {
    std::size_t begin_index = npos;
    std::size_t end_index = npos;
    ObjectId object = 0;
    ProcId proc = 0;
  };

  /// One iteration marker span (IterBegin .. IterEnd on one processor).
  struct IterSpan {
    std::size_t begin_index = npos;
    std::size_t end_index = npos;  ///< npos when the IterEnd is missing
    std::int64_t iteration = 0;
    ObjectId object = 0;  ///< owning loop object
    ProcId proc = 0;
  };

  /// One barrier episode, keyed by (object, episode payload).
  struct BarrierEpisode {
    SyncKey key;
    std::vector<std::size_t> arrivals;  ///< trace order
    std::vector<std::size_t> departs;   ///< trace order
  };

  explicit TraceIndex(const Trace& trace);

  /// Same as TraceIndex(trace); the pool is unused.  Kept for callers
  /// outside the library that still pass one.
  TraceIndex(const Trace& trace, support::TaskPool& pool);

  const Trace& trace() const noexcept { return *trace_; }
  std::size_t size() const noexcept { return prev_on_proc_.size(); }

  // ---- per-processor structure -----------------------------------------

  /// Number of per-processor event lists (max processor index seen + 1;
  /// may differ from trace().info().num_procs on degraded traces).
  std::size_t num_procs() const noexcept { return proc_events_.size(); }

  /// Trace indices of `proc`'s events, in trace order (empty for a
  /// processor with no events).  A read-only view of 32-bit indices into
  /// the index's own table.
  std::span<const std::uint32_t> events_of(ProcId proc) const;

  /// Same-processor predecessor of event i, npos for a processor's first.
  std::size_t prev_on_proc(std::size_t i) const {
    return widen(prev_on_proc_[i]);
  }

  /// The LoopBegin event i depends on when i is a processor's first event
  /// inside a parallel-loop episode (the processor was idle through the
  /// master's sequential section); npos otherwise.
  std::size_t fork_dep(std::size_t i) const { return lookup(fork_dep_, i); }

  // ---- loop / iteration spans ------------------------------------------

  const std::vector<LoopSpan>& loops() const noexcept { return loops_; }
  const std::vector<IterSpan>& iterations() const noexcept { return iters_; }

  // ---- advance / await --------------------------------------------------

  /// All advances for `key`, ascending.  Well-formed traces have at most
  /// one; duplicates (a ViolationKind) are preserved for triage.
  /// Inline: these are the hot-path lookups of every analysis pass.
  IndexRange advances(SyncKey key) const {
    const auto lo =
        std::lower_bound(advance_keys_.begin(), advance_keys_.end(), key);
    const auto hi = std::upper_bound(lo, advance_keys_.end(), key);
    const std::uint32_t* base = advance_idx_.data();
    return {base + (lo - advance_keys_.begin()),
            base + (hi - advance_keys_.begin())};
  }
  std::size_t first_advance(SyncKey key) const {
    const auto lo =
        std::lower_bound(advance_keys_.begin(), advance_keys_.end(), key);
    if (lo == advance_keys_.end() || !(*lo == key)) return npos;
    return advance_idx_[static_cast<std::size_t>(lo - advance_keys_.begin())];
  }
  std::size_t last_advance(SyncKey key) const {
    const auto hi =
        std::upper_bound(advance_keys_.begin(), advance_keys_.end(), key);
    if (hi == advance_keys_.begin() || !(*(hi - 1) == key)) return npos;
    return advance_idx_[static_cast<std::size_t>(hi - advance_keys_.begin()) -
                        1];
  }
  /// Latest advance for `key` with trace index < i (streaming semantics).
  std::size_t last_advance_before(SyncKey key, std::size_t i) const {
    const IndexRange r = advances(key);
    const auto it = std::lower_bound(r.begin(), r.end(), i);
    return it == r.begin() ? npos : *(it - 1);
  }
  /// Every advance that repeats an earlier advance's key, in trace order.
  const std::vector<std::size_t>& duplicate_advances() const noexcept {
    return duplicate_advances_;
  }

  /// All awaitB events for (key, proc), ascending.
  IndexRange await_begins(SyncKey key, ProcId proc) const;
  std::size_t last_await_begin_before(SyncKey key, ProcId proc,
                                      std::size_t i) const;

  // ---- an awaitE's partners ----------------------------------------------
  //
  // Constant-time answers for an awaitE event i, whose key is
  // (object, payload) of trace()[i].  Each equals the search named in its
  // comment on every trace; the searches run only where the trace leaves
  // them no shortcut (duplicate keys, an awaitB that is not the awaitE's
  // previous event, an awaitE with no earlier advance).

  /// The advance awaitE i waited for: last_advance_before(key, i), resolved
  /// for every awaitE while the index is built.  npos for other events.
  std::size_t awaited_advance(std::size_t i) const {
    return lookup(awaited_advance_, i);
  }
  /// i's awaitB: last_await_begin_before(key, proc, i).  O(1) when it is
  /// i's previous event on its processor.
  std::size_t await_begin_before(std::size_t i) const {
    const std::size_t prev = prev_on_proc(i);
    if (is_await_begin_of(prev, i)) return prev;
    return last_await_begin_before(key_of(i), (*trace_)[i].proc, i);
  }
  /// first_advance(key): O(1) when the trace repeats no advance and i has
  /// an earlier one.
  std::size_t first_advance_of(std::size_t i) const {
    const std::size_t adv = awaited_advance(i);
    if (adv != npos && unique_advances_) return adv;
    return first_advance(key_of(i));
  }
  /// last_advance(key): O(1) on the same condition.
  std::size_t last_advance_of(std::size_t i) const {
    const std::size_t adv = awaited_advance(i);
    if (adv != npos && unique_advances_) return adv;
    return last_advance(key_of(i));
  }

  // ---- cross-processor dependencies --------------------------------------

  /// Calls fn(d) for each cross-processor dependency d of event i: the
  /// advance an awaitE waited for, the hand-off release of a lock
  /// acquisition, every arrival of a barrier departure's episode before it,
  /// and otherwise — when the rule for i's kind finds none — the LoopBegin
  /// that spawned a processor's first event inside a parallel-loop episode.
  /// Calls nothing when i has none.  The critical path takes the latest of
  /// them by time; the what-if DAG keeps them all, since re-evaluation can
  /// change which arrival is latest.  Arrivals come in trace order, which
  /// the what-if critical-path walk relies on to break ties toward the
  /// earliest arrival.
  template <typename Fn>
  void for_each_cross_dep(std::size_t i, Fn&& fn) const {
    const Event& e = (*trace_)[i];
    switch (e.kind) {
      case EventKind::kAwaitEnd: {
        const std::size_t adv = awaited_advance(i);
        if (adv != npos) {
          fn(adv);
          return;
        }
        break;
      }
      case EventKind::kLockAcquire: {
        const std::size_t dep = lock_dep(i);
        if (dep != npos) {
          fn(dep);
          return;
        }
        break;
      }
      case EventKind::kBarrierDepart: {
        const BarrierEpisode* ep = barrier_episode(e.object, e.payload);
        if (ep != nullptr && !ep->arrivals.empty() &&
            ep->arrivals.front() < i) {
          for (const std::size_t a : ep->arrivals) {
            if (a >= i) break;
            fn(a);
          }
          return;
        }
        break;
      }
      default:
        break;
    }
    const std::size_t fork = fork_dep(i);
    if (fork != npos) fn(fork);
  }

  // ---- locks ------------------------------------------------------------

  /// For a LockAcquire event i: the object's latest LockRelease before i
  /// (the hand-off source), npos when the lock was free.  npos for
  /// non-acquire events.
  std::size_t lock_dep(std::size_t i) const { return lookup(lock_dep_, i); }

  // ---- counting semaphores ----------------------------------------------

  /// For a SemAcquire event i: its 0-based per-object acquire ordinal
  /// (the k-th P() on that semaphore in trace order).  npos otherwise.
  std::size_t sem_ordinal(std::size_t i) const {
    return lookup(sem_ordinal_, i);
  }

  /// SemRelease indices for `object`, in trace order.
  const std::vector<std::size_t>& sem_releases(ObjectId object) const;

  // ---- barriers ----------------------------------------------------------

  /// Episodes sorted by (object, payload) — deterministic iteration order.
  const std::vector<BarrierEpisode>& barrier_episodes() const noexcept {
    return barriers_;
  }
  /// Lookup by (object, episode payload); nullptr when absent.
  const BarrierEpisode* barrier_episode(ObjectId object,
                                        std::int64_t payload) const;

 private:
  /// No-build constructor for the incremental builder; every member is
  /// filled by IncrementalTraceIndex before the index is handed out.
  TraceIndex() : trace_(nullptr) {}
  friend class IncrementalTraceIndex;

  /// 32-bit table entry <-> size_t answer; the all-ones entry is npos.
  static constexpr std::uint32_t kNone32 = 0xffffffffu;
  static std::size_t widen(std::uint32_t v) noexcept {
    return v == kNone32 ? npos : v;
  }
  static std::uint32_t narrow(std::size_t v) noexcept {
    return v == npos ? kNone32 : static_cast<std::uint32_t>(v);
  }
  /// Entry i of a lazily allocated table; npos while it is unallocated.
  static std::size_t lookup(const std::vector<std::uint32_t>& table,
                            std::size_t i) {
    return table.empty() ? npos : widen(table[i]);
  }
  /// Sets entry i of a lazily allocated table: its first entry allocates it
  /// (all npos) over `size` entries, a later one past its end grows it.
  static void set_entry(std::vector<std::uint32_t>& table, std::size_t size,
                        std::size_t i, std::size_t value) {
    if (table.size() <= i) table.resize(size, kNone32);
    table[i] = narrow(value);
  }

  /// An awaitB table key: (object, index) then processor.  The processor
  /// sits in the padding after the object, so a key takes 16 bytes.
  struct AwaitKey {
    ObjectId object = 0;
    ProcId proc = 0;
    std::int64_t index = 0;
    friend bool operator==(const AwaitKey&, const AwaitKey&) = default;
    friend bool operator<(const AwaitKey& a, const AwaitKey& b) {
      if (a.object != b.object) return a.object < b.object;
      if (a.index != b.index) return a.index < b.index;
      return a.proc < b.proc;
    }
  };

  SyncKey key_of(std::size_t i) const {
    const Event& e = (*trace_)[i];
    return {e.object, e.payload};
  }
  /// True when event j is an awaitB with awaitE i's key.  Callers pass
  /// i's previous event on its processor, so j is on i's processor.
  bool is_await_begin_of(std::size_t j, std::size_t i) const {
    if (j == npos) return false;
    const Event& b = (*trace_)[j];
    const Event& e = (*trace_)[i];
    return b.kind == EventKind::kAwaitBegin && b.object == e.object &&
           b.payload == e.payload;
  }

  /// Table finisher run by IncrementalTraceIndex::seal(): puts the
  /// collected advance/await columns in key order (a sort only when they
  /// arrived out of it), extracts duplicate advances, sets the unique-key
  /// flags, resolves the awaitEs in `await_ends` to their advances, and
  /// orders the barrier episodes.
  void finish_tables(bool advances_sorted, bool awaits_sorted,
                     const std::vector<std::uint32_t>& await_ends);

  const Trace* trace_;
  std::vector<std::uint32_t> prev_on_proc_;
  std::vector<std::uint32_t> fork_dep_;         ///< lazy: empty = all npos
  std::vector<std::uint32_t> lock_dep_;         ///< lazy
  std::vector<std::uint32_t> sem_ordinal_;      ///< lazy
  std::vector<std::uint32_t> awaited_advance_;  ///< lazy
  std::vector<std::vector<std::uint32_t>> proc_events_;
  std::vector<LoopSpan> loops_;
  std::vector<IterSpan> iters_;

  // Flat sorted tables: parallel (key, trace-index) arrays ordered by key
  // then index, so one key's occurrences form a contiguous ascending slice
  // of the index array.
  std::vector<SyncKey> advance_keys_;
  std::vector<std::uint32_t> advance_idx_;
  std::vector<AwaitKey> await_keys_;
  std::vector<std::uint32_t> await_idx_;
  std::vector<std::size_t> duplicate_advances_;
  /// No key has two advances: the guard of the *_advance_of fast paths.
  bool unique_advances_ = true;

  std::unordered_map<ObjectId, std::vector<std::size_t>> sem_releases_;
  std::vector<BarrierEpisode> barriers_;  ///< sorted by key
  std::unordered_map<SyncKey, std::size_t, SyncKeyHash> barrier_slot_;
};

/// The fork rule's per-event transition: inside a parallel-loop episode, a
/// processor's first event depends on the loop's spawn, not on that
/// processor's previous event (it was idle through the master's sequential
/// section).  Shared by the index builder and the streaming reconstructor.
class ForkScan {
 public:
  /// Advances over the next event in trace order.  Returns the 0-based
  /// ordinal (among LoopBegins) of the episode `e` is forked from, npos
  /// when `e` has no fork dependency.
  std::size_t step(const Event& e) {
    if (e.kind == EventKind::kLoopBegin) {
      open_loop_ = loops_++;
      join(e.proc, loops_);  // the master's chain covers the spawn
      return TraceIndex::npos;
    }
    if (e.kind == EventKind::kLoopEnd) open_loop_ = TraceIndex::npos;
    if (open_loop_ == TraceIndex::npos || joined(e.proc) == open_loop_ + 1)
      return TraceIndex::npos;
    join(e.proc, open_loop_ + 1);
    return open_loop_;
  }

  /// Ordinal of the episode in progress; npos outside one.
  std::size_t open_loop() const noexcept { return open_loop_; }

 private:
  std::size_t joined(ProcId p) const {
    return p < joined_.size() ? joined_[p] : 0;
  }
  void join(ProcId p, std::size_t ordinal_plus_one) {
    if (joined_.size() <= p) joined_.resize(p + 1u, 0);
    joined_[p] = ordinal_plus_one;
  }

  std::vector<std::size_t> joined_;  ///< by proc; last joined ordinal + 1
  std::size_t open_loop_ = TraceIndex::npos;
  std::size_t loops_ = 0;  ///< LoopBegins seen
};

/// The TraceIndex builder.  append() is the index's per-event transition;
/// seal() runs the table finishers.  A streaming load appends events as
/// chunks arrive; TraceIndex(trace) appends a whole trace to a builder
/// presized for it.  Either way the sealed index answers every query the
/// same, and its lazy tables are allocated exactly when the trace has an
/// entry for them.  append() throws CheckError once the appended events
/// would reach TraceIndex::kMaxEvents.
class IncrementalTraceIndex {
 public:
  IncrementalTraceIndex() = default;

  void append(const Event& e);
  void append(const Event* events, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) append(events[i]);
  }

  /// Events appended so far.
  std::size_t size() const noexcept { return index_.prev_on_proc_.size(); }

  /// Seals into an index over `trace`, which must hold exactly the appended
  /// events in append order and must outlive the result.  Consumes the
  /// builder.
  TraceIndex seal(const Trace& trace) &&;

 private:
  friend class TraceIndex;
  /// Appends all of `trace` with every table presized to its length.
  explicit IncrementalTraceIndex(const Trace& trace);

  TraceIndex index_;
  std::size_t expected_ = 0;  ///< presized length; 0 when streaming
  /// The sync tables' columns arrive in trace order; these record whether
  /// that is also key order, which leaves seal() nothing to sort.
  bool advances_sorted_ = true;
  bool awaits_sorted_ = true;
  std::size_t advance_hint_ = 0;  ///< the last awaitE's advance run end
  /// awaitEs appended after the advances left key order, for seal().
  std::vector<std::uint32_t> unresolved_await_ends_;

  // Scan state carried between appends.
  std::vector<std::uint32_t> last_on_proc_;
  std::unordered_map<ObjectId, std::size_t> last_release_;
  std::unordered_map<ObjectId, std::size_t> sem_acquire_count_;
  std::vector<std::size_t> open_iter_;  // by proc; npos = none open
  ForkScan forks_;
};

}  // namespace perturb::trace
