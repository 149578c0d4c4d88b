#include "core/eventbased.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "support/check.hpp"
#include "support/text.hpp"

namespace perturb::core {

namespace {

using trace::Event;
using trace::EventKind;
using trace::SyncKey;
using trace::Trace;
using trace::TraceIndex;

constexpr std::size_t kNone = TraceIndex::npos;

/// A dependency source as the retiming rules see it: absent (the trace has
/// none), blocked (not resolved yet), or ready with its approximated time
/// `ta` (and, where a rule needs it, its measured time `tm`).
struct Dep {
  enum class State : std::uint8_t { kAbsent, kBlocked, kReady };
  State state = State::kAbsent;
  Tick ta = 0;
  Tick tm = 0;

  static Dep absent() { return {}; }
  static Dep blocked() { return {State::kBlocked, 0, 0}; }
  static Dep ready(Tick ta, Tick tm = 0) { return {State::kReady, ta, tm}; }
  bool is_absent() const { return state == State::kAbsent; }
  bool is_blocked() const { return state == State::kBlocked; }
};

/// Both reconstructors' diagnosis of a dependency cycle.
void check_all_resolved(std::size_t unresolved) {
  PERTURB_CHECK_MSG(
      unresolved == 0,
      support::strf("event-based analysis deadlocked with %zu unresolved "
                    "events (inconsistent measured trace?)",
                    unresolved));
}

/// The retiming rules of §4.2, written once for both reconstructors.
///
/// try_resolve(e, src) re-times event `e`, whose dependency lookups `src`
/// answers: fork(), advance() and await_begin() (an awaitE's partners),
/// lock_release(), sem_ordinal() and sem_release(r), barrier_arrivals() (the
/// latest approximated arrival of a departure's episode), then
/// retire_await_begin() once an awaitE consumed its partner and publish(t)
/// with the resolved time.  The batch source answers from the TraceIndex and
/// the times resolved so far; the streamed one from its lookaside records.
/// Events must be offered in trace order per processor.
class Retimer {
 public:
  Retimer(const AnalysisOverheads& ov, const EventBasedOptions& opt)
      : ov_(ov), opt_(opt) {}

  /// Returns false — with no side effects — while a dependency is blocked;
  /// otherwise computes e's approximated time and publishes it.
  template <typename Source>
  bool try_resolve(const Event& e, Source& src) {
    const Dep fork = src.fork();
    if (fork.is_blocked()) return false;
    Tick t;
    bool anchored = false;  // time came from a dependency model
    switch (e.kind) {
      case EventKind::kAwaitEnd: {
        const Dep adv = src.advance();
        if (adv.is_blocked()) return false;
        const Dep ab = src.await_begin();
        if (adv.is_absent() || ab.is_absent()) {
          // Degenerate trace (missing partner events): fall back to the
          // time-based rule.
          t = base_time(e, fork);
          break;
        }
        anchored = true;
        src.retire_await_begin();
        ++stats_.awaits_total;
        // Measured waiting is judged by the await's *duration*: the awaitE
        // timestamp is inflated by its own probe, and the advance timestamp
        // by the advance probe, so comparing raw cross-processor times
        // misclassifies near-simultaneous cases.
        const Cycles gamma = ov_.probe_for(EventKind::kAwaitEnd);
        const Tick nowait_span =
            ov_.s_nowait + gamma + std::max<Cycles>(4, gamma / 4);
        const bool waited_measured = e.time - ab.tm > nowait_span;
        // Continuous form of the paper's two-branch formula: the await
        // completes either s_nowait after its begin or s_wait after the
        // advance, whichever is later.  At the branch boundary the two
        // expressions meet, so near-critical races do not amplify modelling
        // jitter the way a hard branch would.
        const Tick no_wait_t = ab.ta + ov_.s_nowait;
        const Tick wait_t = adv.ta + ov_.s_wait;
        const bool waits_approx = wait_t > no_wait_t;
        stats_.waits_measured += waited_measured ? 1 : 0;
        stats_.waits_approx += waits_approx ? 1 : 0;
        stats_.waits_removed += (waited_measured && !waits_approx) ? 1 : 0;
        stats_.waits_introduced += (!waited_measured && waits_approx) ? 1 : 0;
        t = std::max(no_wait_t, wait_t);
        break;
      }
      case EventKind::kLockAcquire: {
        if (!opt_.model_locks) {
          t = base_time(e, fork);
          break;
        }
        const Dep release = src.lock_release();
        if (release.is_blocked()) return false;
        anchored = true;
        t = acquire_time(e.proc, release, ov_.lock_acquire);
        break;
      }
      case EventKind::kSemAcquire: {
        // The k-th acquire (0-based) of a capacity-c semaphore waits for the
        // (k - c)-th release in measured order; the first c take initial
        // permits.  Unknown capacity: time-based fallback.
        const auto cap = opt_.semaphore_capacity.find(e.object);
        if (cap == opt_.semaphore_capacity.end()) {
          t = base_time(e, fork);
          break;
        }
        const std::size_t k = src.sem_ordinal();
        const auto c = static_cast<std::size_t>(cap->second);
        const Dep release = k < c ? Dep::absent() : src.sem_release(k - c);
        if (release.is_blocked()) return false;
        anchored = true;
        t = acquire_time(e.proc, release, ov_.sem_acquire);
        break;
      }
      case EventKind::kBarrierDepart: {
        if (!opt_.model_barriers) {
          t = base_time(e, fork);
          break;
        }
        const Dep arrivals = src.barrier_arrivals();
        if (arrivals.is_blocked()) return false;
        anchored = true;
        t = arrivals.ta + ov_.barrier_depart;
        break;
      }
      default:
        t = base_time(e, fork);
        break;
    }
    // Per-processor monotonicity: the dependency models can only push events
    // later than the same-processor predecessor, never earlier.
    ProcState& ps = proc(e.proc);
    if (ps.started) t = std::max(t, ps.last_ta);
    // Dependency-model, fork, and segment-opening events anchor a new
    // independent-execution segment.
    if (anchored || !ps.started || !fork.is_absent())
      ps = {true, t, e.time, 0, t};
    else
      ps.last_ta = t;
    src.publish(t);  // last: the streamed source retimes `e` in place
    return true;
  }

  EventBasedResult take_stats() { return std::move(stats_); }

 private:
  /// Per-processor reconstruction state between synchronization points.
  ///
  /// Within a segment of independent execution the approximated time is
  /// computed *cumulatively* from the segment's basis —
  ///     t_a(e) = t_a(basis) + [t_m(e) - t_m(basis)] - sum(alpha since basis)
  /// — so per-event probe-cost jitter telescopes instead of accumulating
  /// through per-gap clamping.  The basis is re-anchored at every event whose
  /// time comes from a dependency model (awaitE, lock acquire, barrier
  /// depart, loop fork).
  struct ProcState {
    bool started = false;  ///< an event of this processor is resolved
    Tick basis_ta = 0;
    Tick basis_tm = 0;
    Tick overhead = 0;  ///< mean probe overhead accrued since the basis
    Tick last_ta = 0;   ///< the latest resolved event's approximated time
  };

  ProcState& proc(trace::ProcId p) {
    if (procs_.size() <= p) procs_.resize(p + 1u);
    return procs_[p];
  }

  /// Base approximation: the de-perturbed measured gap from the event's
  /// causal predecessor — the loop spawn for a processor's first event in a
  /// parallel-loop episode (its own previous event happened before an idle
  /// stretch whose measured length is the *master's* perturbed time), the
  /// segment basis otherwise.
  Tick base_time(const Event& e, const Dep& fork) {
    const Cycles alpha = ov_.probe_for(e.kind);
    if (!fork.is_absent()) {
      Tick gap = (e.time - fork.tm) - alpha;
      if (gap < 0) gap = 0;
      return fork.ta + gap;
    }
    ProcState& seg = proc(e.proc);
    if (!seg.started) {
      const Tick t = e.time - alpha;
      return t < 0 ? 0 : t;
    }
    seg.overhead += alpha;
    Tick t = seg.basis_ta + (e.time - seg.basis_tm) - seg.overhead;
    if (t < seg.basis_ta) t = seg.basis_ta;
    return t;
  }

  /// Conservative hand-off: the processor requests the lock (permit)
  /// immediately after its previous recorded event; it becomes available
  /// when the releasing event's approximated time is reached.
  Tick acquire_time(trace::ProcId p, const Dep& release, Cycles cost) {
    const ProcState& ps = proc(p);
    const Tick request = ps.started ? ps.last_ta : 0;
    const Tick available = release.is_absent() ? request : release.ta;
    return std::max(request, available) + cost;
  }

  const AnalysisOverheads& ov_;
  const EventBasedOptions& opt_;
  std::vector<ProcState> procs_;
  EventBasedResult stats_;
};

/// The approximated trace: a k-way merge of the per-processor chains, each
/// nondecreasing in (t_a, measured index) under the monotonicity clamp —
/// identical to the stable sort by time of the re-timed events, without
/// sorting all n of them.  `length(c)` is chain c's length and `at(c, k)`
/// its k-th RetimedEvent.  With at most one cursor per processor a linear
/// min-scan beats a heap: a handful of predictable compares per event.
template <typename Length, typename At>
Trace merge_chains(const trace::TraceInfo& measured, std::size_t chains,
                   std::size_t total, Length length, At at) {
  Trace approx(measured);
  approx.info().name = measured.name + "/event-based";
  approx.events().reserve(total);
  struct Cursor {
    RetimedEvent head;
    std::size_t chain;
    std::size_t pos;
    std::size_t end;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(chains);
  for (std::size_t c = 0; c < chains; ++c)
    if (const std::size_t end = length(c); end != 0)
      cursors.push_back({at(c, 0), c, 0, end});
  while (!cursors.empty()) {
    std::size_t best = 0;
    for (std::size_t k = 1; k < cursors.size(); ++k) {
      const RetimedEvent& a = cursors[k].head;
      const RetimedEvent& b = cursors[best].head;
      if (a.event.time < b.event.time ||
          (a.event.time == b.event.time && a.index < b.index))
        best = k;
    }
    Cursor& c = cursors[best];
    approx.append(c.head.event);
    if (++c.pos < c.end) {
      c.head = at(c.chain, c.pos);
    } else {
      cursors[best] = cursors.back();
      cursors.pop_back();
    }
  }
  return approx;
}

/// Batch reconstruction over a TraceIndex: resolves each processor's events
/// in measured order, round-robin until every event is resolved.
class Reconstructor {
 public:
  Reconstructor(const TraceIndex& index, const AnalysisOverheads& ov,
                const EventBasedOptions& opt)
      : idx_(index), measured_(index.trace()), retimer_(ov, opt) {}

  EventBasedResult run() {
    const std::size_t n = measured_.size();
    t_a_.assign(n, 0);
    resolved_.assign(n, 0);
    resolve_all();
    const auto chain = [&](std::size_t p) {
      return idx_.events_of(static_cast<trace::ProcId>(p));
    };
    EventBasedResult result = retimer_.take_stats();
    result.approx = merge_chains(
        measured_.info(), idx_.num_procs(), n,
        [&](std::size_t p) { return chain(p).size(); },
        [&](std::size_t p, std::size_t k) {
          const std::size_t i = chain(p)[k];
          RetimedEvent r{measured_[i], i};
          r.event.time = t_a_[i];
          return r;
        });
    return result;
  }

 private:
  /// Event i's dependencies, answered from the index and the approximated
  /// times resolved so far.
  struct Source {
    Reconstructor& r;
    std::size_t i;
    std::size_t ab = kNone;  ///< the awaitB await_begin() paired

    Dep resolved(std::size_t j) const {
      if (j == kNone) return Dep::absent();
      return (r.resolved_[j] & kResolved) != 0 ? Dep::ready(r.t_a_[j])
                                               : Dep::blocked();
    }
    Dep fork() const {
      const std::size_t f = r.idx_.fork_dep(i);
      Dep d = resolved(f);
      if (!d.is_absent()) d.tm = r.measured_[f].time;
      return d;
    }
    // An awaitE's partners: its key's last advance and its own awaitB (the
    // latest before it on its processor), unless an earlier awaitE consumed
    // that awaitB, as the streamed lookaside does.  The index answers both
    // in O(1) on traces without duplicate advances whose awaitEs directly
    // follow their awaitBs, so a blocked awaitE's retries cost nothing.
    Dep advance() const { return resolved(r.idx_.last_advance_of(i)); }
    Dep await_begin() {
      ab = r.idx_.await_begin_before(i);
      if (ab == kNone || (r.resolved_[ab] & kConsumed) != 0)
        return Dep::absent();
      return Dep::ready(r.t_a_[ab], r.measured_[ab].time);
    }
    void retire_await_begin() const { r.resolved_[ab] |= kConsumed; }
    Dep lock_release() const { return resolved(r.idx_.lock_dep(i)); }
    std::size_t sem_ordinal() const { return r.idx_.sem_ordinal(i); }
    Dep sem_release(std::size_t k) const {
      const auto& releases = r.idx_.sem_releases(r.measured_[i].object);
      return k < releases.size() ? resolved(releases[k]) : Dep::absent();
    }
    Dep barrier_arrivals() const {
      const Event& e = r.measured_[i];
      const auto* ep = r.idx_.barrier_episode(e.object, e.payload);
      if (ep == nullptr) return Dep::absent();
      Tick latest = 0;
      for (const std::size_t a : ep->arrivals) {
        if ((r.resolved_[a] & kResolved) == 0) return Dep::blocked();
        latest = std::max(latest, r.t_a_[a]);
      }
      return Dep::ready(latest);
    }
    void publish(Tick t) const {
      r.t_a_[i] = t;
      r.resolved_[i] = kResolved;
    }
  };

  bool try_resolve(std::size_t i) {
    Source src{*this, i};
    return retimer_.try_resolve(measured_[i], src);
  }

  void resolve_all() {
    const std::size_t num_procs = idx_.num_procs();
    std::vector<std::size_t> cursor(num_procs, 0);
    bool progress = true;
    std::size_t remaining = measured_.size();
    while (progress && remaining > 0) {
      progress = false;
      for (std::size_t p = 0; p < num_procs; ++p) {
        auto& pos = cursor[p];
        const auto evs = idx_.events_of(static_cast<trace::ProcId>(p));
        while (pos < evs.size() && try_resolve(evs[pos])) {
          ++pos;
          --remaining;
          progress = true;
        }
      }
    }
    check_all_resolved(remaining);
  }

  const TraceIndex& idx_;
  const Trace& measured_;
  Retimer retimer_;

  // Per-event flags; vector<bool> is slower.  An awaitB is consumed once
  // an awaitE paired with it.
  static constexpr std::uint8_t kResolved = 1;
  static constexpr std::uint8_t kConsumed = 2;
  std::vector<Tick> t_a_;
  std::vector<std::uint8_t> resolved_;
};

}  // namespace

EventBasedResult event_based_approximation(const trace::Trace& measured,
                                           const AnalysisOverheads& overheads,
                                           const EventBasedOptions& options) {
  const TraceIndex index(measured);
  return Reconstructor(index, overheads, options).run();
}

EventBasedResult event_based_approximation(const trace::TraceIndex& index,
                                           const AnalysisOverheads& overheads,
                                           const EventBasedOptions& options) {
  return Reconstructor(index, overheads, options).run();
}

// ---- streaming (windowed) reconstruction ---------------------------------

void CollectSink::on_segment(trace::ProcId proc, const RetimedEvent* events,
                             std::size_t n) {
  if (chains_.size() <= proc) chains_.resize(proc + 1u);
  chains_[proc].insert(chains_[proc].end(), events, events + n);
}

std::size_t CollectSink::size() const noexcept {
  std::size_t total = 0;
  for (const auto& c : chains_) total += c.size();
  return total;
}

trace::Trace CollectSink::take(const trace::TraceInfo& measured_info) {
  Trace approx = merge_chains(
      measured_info, chains_.size(), size(),
      [&](std::size_t c) { return chains_[c].size(); },
      [&](std::size_t c, std::size_t k) { return chains_[c][k]; });
  chains_.clear();
  return approx;
}

namespace {

/// A 32-bit handle into one of the streamed reconstructor's record vectors;
/// kNoHandle is none.
using Handle = std::uint32_t;
constexpr Handle kNoHandle = 0xffffffffu;

/// The handle of the next entry of a record vector holding `size` entries.
/// Throws CheckError (one line) once handles would run out.
Handle next_handle(std::size_t size) {
  PERTURB_CHECK_MSG(
      size < kNoHandle,
      support::strf("a stream with %zu synchronization records is too long "
                    "to reconstruct (the limit is 2^32 - 1 per kind)",
                    size + 1));
  return static_cast<Handle>(size);
}

/// Fibonacci hashing of an integer key plus a salt: FlatTable takes the top
/// bits, which spread consecutive payloads of one object evenly.
constexpr std::uint64_t hash_key(std::int64_t payload, std::uint64_t salt) {
  return (static_cast<std::uint64_t>(payload) +
          salt * 0xd6e8feb86659fd93ULL) *
         0x9e3779b97f4a7c15ULL;
}

/// Open-addressing hash table with linear probing, the streamed
/// reconstructor's one lookaside container.  A `Slot` is the whole entry,
/// key and value, so each lookaside picks its own compact layout; it
/// provides `Key`, `key()`, `vacant()` (true of a default-constructed
/// Slot) and a static `hash(key)`.  The capacity is a power of two kept at
/// a load of at most 7/8, and erase() shifts the rest of the probe run back
/// over the gap, so erased entries leave no tombstones.  Only growth
/// allocates.
template <typename Slot>
class FlatTable {
 public:
  using Key = typename Slot::Key;

  FlatTable() { rehash(16); }

  Slot* find(const Key& k) {
    for (std::size_t i = home(k);; i = next(i)) {
      Slot& s = slots_[i];
      if (s.vacant()) return nullptr;
      if (s.key() == k) return &s;
    }
  }

  /// Stores `slot`, replacing the entry with its key if there is one.
  Slot& assign(const Slot& slot) {
    if ((size_ + 1) * 8 > slots_.size() * 7) rehash(slots_.size() * 2);
    const Key k = slot.key();
    std::size_t i = home(k);
    for (; !slots_[i].vacant(); i = next(i))
      if (slots_[i].key() == k) return slots_[i] = slot;
    ++size_;
    return slots_[i] = slot;
  }

  /// Removes the entry `s` points to (a find() result).
  void erase(Slot& s) {
    std::size_t hole = static_cast<std::size_t>(&s - slots_.data());
    for (std::size_t i = next(hole); !slots_[i].vacant(); i = next(i)) {
      // Entry i may fill the hole unless its home lies in (hole, i].
      const std::size_t mask = slots_.size() - 1;
      if (((i - home(slots_[i].key())) & mask) >= ((i - hole) & mask)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

 private:
  std::size_t home(const Key& k) const {
    return static_cast<std::size_t>(Slot::hash(k) >> shift_);
  }
  std::size_t next(std::size_t i) const {
    return (i + 1) & (slots_.size() - 1);
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    shift_ = 64 - std::countr_zero(capacity);
    for (const Slot& s : old) {
      if (s.vacant()) continue;
      std::size_t i = home(s.key());
      while (!slots_[i].vacant()) i = next(i);
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;
};

/// The latest advance seen per sync key: 16 bytes.
struct AdvanceSlot {
  using Key = SyncKey;
  std::int64_t payload = 0;
  trace::ObjectId object = 0;
  Handle rec = kNoHandle;  ///< the advance's time record; vacant if none

  Key key() const { return {object, payload}; }
  bool vacant() const { return rec == kNoHandle; }
  static std::uint64_t hash(const Key& k) {
    return hash_key(k.index, k.object);
  }
};

/// A resolved await-begin that its await-end has not consumed yet.
struct AwaitBSlot {
  struct Key {
    SyncKey key;
    trace::ProcId proc = 0;
    friend bool operator==(const Key&, const Key&) = default;
  };
  std::int64_t payload = 0;
  Tick ta = 0;
  Tick tm = 0;
  trace::ObjectId object = 0;
  trace::ProcId proc = 0;
  bool used = false;

  Key key() const { return {{object, payload}, proc}; }
  bool vacant() const { return !used; }
  static std::uint64_t hash(const Key& k) {
    return hash_key(k.key.index,
                    (static_cast<std::uint64_t>(k.key.object) << 16) | k.proc);
  }
};

/// A per-object handle: a lock's latest release record, a semaphore's
/// state.
struct ObjectSlot {
  using Key = trace::ObjectId;
  trace::ObjectId object = 0;
  Handle value = kNoHandle;  ///< vacant if none

  Key key() const { return object; }
  bool vacant() const { return value == kNoHandle; }
  static std::uint64_t hash(Key k) { return hash_key(0, k); }
};

/// One barrier episode's arrivals, ingested and resolved.
struct BarrierSlot {
  using Key = SyncKey;
  std::int64_t payload = 0;
  Tick max_ta = 0;
  std::uint64_t seen = 0;  ///< arrivals ingested; vacant if none
  std::uint64_t resolved = 0;
  trace::ObjectId object = 0;

  Key key() const { return {object, payload}; }
  bool vacant() const { return seen == 0; }
  static std::uint64_t hash(const Key& k) {
    return hash_key(k.index, k.object);
  }
};

}  // namespace

/// Streamed reconstruction with the batch reconstructor's Retimer.
/// Dependencies on already retired events are answered from small lookaside
/// records created at ingest (one per advance / lock release / semaphore
/// release / loop spawn / barrier episode / resolved await-begin) instead of
/// from a TraceIndex, and events wait in per-processor FIFO queues until
/// their dependencies resolve.  Before end-of-stream a partner that has not
/// been ingested yet may still arrive, so it blocks instead of being absent.
///
/// Ingest, drain and spill allocate only on growth: the queues keep their
/// capacity across drains, records are 8-byte entries of one vector named
/// by 32-bit handles, and the lookasides are FlatTables.
struct StreamingReconstructor::Impl {
  /// A dependency record whose event is not resolved yet.  Approximated
  /// times are clamped at 0 from the first event on, so none is this low.
  static constexpr Tick kUnresolved = std::numeric_limits<Tick>::min();

  /// One LoopBegin: fork dependents need both its measured and approximated
  /// times.
  struct LoopRec {
    Tick tm = 0;
    Tick ta = 0;
    bool resolved = false;
  };

  struct Semaphore {
    std::size_t acquires = 0;      ///< acquires ingested
    std::vector<Handle> releases;  ///< release records, in trace order
  };

  /// A pending event's dependency handles: `fork` is the loop ordinal of
  /// its fork dependency; `aux` is the event's own record (advance,
  /// lock/semaphore release), its captured dependency (lock acquire), a
  /// LoopBegin's loop ordinal or a SemAcquire's per-object acquire ordinal.
  struct Link {
    Handle fork = kNoHandle;
    Handle aux = kNoHandle;
  };

  /// One processor's events in ingest order; [head, size) are resident,
  /// with their links at the same positions.  A drain retimes a resolved
  /// run in place and spills it straight from `events`.
  struct Queue {
    std::vector<RetimedEvent> events;
    std::vector<Link> links;
    std::size_t head = 0;

    void push(const RetimedEvent& r, Link link) {
      if (events.size() == events.capacity()) make_room();
      events.push_back(r);
      links.push_back(link);
    }

    /// Forgets the retired events once none is resident.
    void reset_if_drained() {
      if (head != events.size()) return;
      events.clear();
      links.clear();
      head = 0;
    }

   private:
    /// With the storage full, drops the retired prefix when it is at least
    /// a quarter of it (at most three moves per slot reclaimed), else grows
    /// the storage by half: it stays within a small factor of the queue's
    /// peak residency.
    void make_room() {
      if (head > 0 && head * 4 >= events.size()) {
        const auto retired = static_cast<std::ptrdiff_t>(head);
        events.erase(events.begin(), events.begin() + retired);
        links.erase(links.begin(), links.begin() + retired);
        head = 0;
        return;
      }
      const std::size_t capacity = events.size() + events.size() / 2 + 16;
      events.reserve(capacity);
      links.reserve(capacity);
    }
  };

  /// Pending event `r`'s dependencies, answered from the lookasides.
  struct Source {
    Impl& s;
    RetimedEvent& r;
    const Link link;
    AwaitBSlot* await_begin_ = nullptr;

    Dep of(Handle rec) const {
      if (rec == kNoHandle) return Dep::absent();
      const Tick ta = s.recs_[rec];
      return ta == kUnresolved ? Dep::blocked() : Dep::ready(ta);
    }
    /// A partner not ingested yet: absent only once the stream has ended.
    Dep unseen() const { return s.eof_ ? Dep::absent() : Dep::blocked(); }
    SyncKey key() const { return {r.event.object, r.event.payload}; }

    Dep fork() const {
      if (link.fork == kNoHandle) return Dep::absent();
      const LoopRec& lr = s.loop_recs_[link.fork];
      return lr.resolved ? Dep::ready(lr.ta, lr.tm) : Dep::blocked();
    }
    Dep advance() const {
      // Latest seen wins, like TraceIndex::last_advance.
      const AdvanceSlot* adv = s.advances_.find(key());
      return adv == nullptr ? unseen() : of(adv->rec);
    }
    Dep await_begin() {
      await_begin_ = s.awaitbs_.find({key(), r.event.proc});
      if (await_begin_ == nullptr) return Dep::absent();
      return Dep::ready(await_begin_->ta, await_begin_->tm);
    }
    /// One await-end consumes one await-begin on its own processor: the
    /// lookaside tracks outstanding awaits (O(window)), not every await.
    void retire_await_begin() { s.awaitbs_.erase(*await_begin_); }
    Dep lock_release() const { return of(link.aux); }
    std::size_t sem_ordinal() const { return link.aux; }
    Dep sem_release(std::size_t k) const {
      const ObjectSlot* sem = s.sem_slots_.find(r.event.object);
      if (sem == nullptr) return unseen();
      const std::vector<Handle>& releases = s.sems_[sem->value].releases;
      return k < releases.size() ? of(releases[k]) : unseen();
    }
    Dep barrier_arrivals() const {
      // Arrivals precede departures in any consistent episode, so every
      // arrival is already ingested (seen) by the time the departure is at
      // its queue head — the seen count is the episode's full arrival list.
      const BarrierSlot* b = s.barriers_.find(key());
      if (b == nullptr) return Dep::absent();
      if (b->resolved < b->seen) return Dep::blocked();
      return Dep::ready(b->max_ta);
    }
    /// Publishes the event as a dependency source and retires it with its
    /// approximated time.
    void publish(Tick t) {
      const Event& e = r.event;
      switch (e.kind) {
        case EventKind::kAdvance:
        case EventKind::kLockRelease:
        case EventKind::kSemRelease:
          s.recs_[link.aux] = t;
          break;
        case EventKind::kAwaitBegin:
          s.awaitbs_.assign(
              {e.payload, t, e.time, e.object, e.proc, /*used=*/true});
          break;
        case EventKind::kBarrierArrive: {
          BarrierSlot& b = *s.barriers_.find(key());
          ++b.resolved;
          b.max_ta = std::max(b.max_ta, t);
          break;
        }
        case EventKind::kLoopBegin:
          s.loop_recs_[link.aux].ta = t;
          s.loop_recs_[link.aux].resolved = true;
          break;
        default:
          break;
      }
      r.event.time = t;
    }
  };

  Impl(const AnalysisOverheads& overheads, const EventBasedOptions& options,
       std::size_t window, StreamSink& sink)
      : ov_(overheads), opt_(options), window_(window), sink_(&sink) {}

  // ---- ingest -------------------------------------------------------------

  Handle new_rec() {
    const Handle h = next_handle(recs_.size());
    recs_.push_back(kUnresolved);
    return h;
  }

  Semaphore& semaphore(trace::ObjectId object) {
    if (const ObjectSlot* sem = sem_slots_.find(object))
      return sems_[sem->value];
    sem_slots_.assign({object, next_handle(sems_.size())});
    return sems_.emplace_back();
  }

  void push(const Event* events, std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) ingest(events[k]);
    if (resident_ >= window_) {
      ++windows_;
      drain();
    }
  }

  void ingest(const Event& e) {
    Link link;
    if (const std::size_t fork = forks_.step(e); fork != kNone)
      link.fork = static_cast<Handle>(fork);  // < loop_recs_.size()

    switch (e.kind) {
      case EventKind::kLoopBegin:
        link.aux = next_handle(loop_recs_.size());
        loop_recs_.push_back({e.time, 0, false});
        break;
      case EventKind::kAdvance:
        link.aux = new_rec();
        advances_.assign({e.payload, e.object, link.aux});
        break;
      case EventKind::kLockRelease:
        link.aux = new_rec();
        locks_.assign({e.object, link.aux});
        break;
      case EventKind::kLockAcquire:
        // Captured at ingest == the latest release *before* this event,
        // exactly TraceIndex::lock_dep.
        if (const ObjectSlot* lock = locks_.find(e.object))
          link.aux = lock->value;
        break;
      case EventKind::kSemAcquire: {
        Semaphore& sem = semaphore(e.object);
        link.aux = next_handle(sem.acquires++);
        break;
      }
      case EventKind::kSemRelease:
        link.aux = new_rec();
        semaphore(e.object).releases.push_back(link.aux);
        break;
      case EventKind::kBarrierArrive:
        if (BarrierSlot* b = barriers_.find({e.object, e.payload}))
          ++b->seen;
        else
          barriers_.assign({e.payload, 0, 1, 0, e.object});
        break;
      default:
        break;
    }

    if (queues_.size() <= e.proc) queues_.resize(e.proc + 1u);
    queues_[e.proc].push({e, next_index_++}, link);
    ++resident_;
    resident_hwm_ = std::max(resident_hwm_, resident_);
  }

  // ---- resolution ---------------------------------------------------------

  /// Round-robin over the per-processor queues until a full pass makes no
  /// progress, spilling each processor's resolved run as one segment.
  void drain() {
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t p = 0; p < queues_.size(); ++p) {
        Queue& q = queues_[p];
        const std::size_t start = q.head;
        for (; q.head < q.events.size(); ++q.head) {
          RetimedEvent& r = q.events[q.head];
          Source src{*this, r, q.links[q.head]};
          if (!retimer_.try_resolve(r.event, src)) break;
        }
        const std::size_t n = q.head - start;
        if (n == 0) continue;
        sink_->on_segment(static_cast<trace::ProcId>(p),
                          q.events.data() + start, n);
        ++spills_;
        resident_ -= n;
        progress = true;
        q.reset_if_drained();
      }
    }
  }

  EventBasedResult finish() {
    eof_ = true;
    ++windows_;
    drain();
    check_all_resolved(resident_);
    return retimer_.take_stats();
  }

  const AnalysisOverheads ov_;
  const EventBasedOptions opt_;
  const std::size_t window_;
  StreamSink* sink_;
  Retimer retimer_{ov_, opt_};

  bool eof_ = false;
  std::size_t next_index_ = 0;
  std::size_t resident_ = 0;
  std::size_t resident_hwm_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t spills_ = 0;

  std::vector<Queue> queues_;  ///< by processor

  // Ingest-side scan state (fork assignment).
  trace::ForkScan forks_;

  // Dependency lookasides.  Sync state is the only reconstructor footprint
  // that scales with the trace, so its constant factor decides how far
  // streaming undercuts batch peak RSS: an advance costs an 8-byte record
  // and a 16-byte slot at a load of at most 7/8.
  std::vector<Tick> recs_;  ///< approximated times, kUnresolved until known
  std::vector<LoopRec> loop_recs_;
  FlatTable<AdvanceSlot> advances_;
  FlatTable<AwaitBSlot> awaitbs_;
  FlatTable<ObjectSlot> locks_;      ///< latest release record
  FlatTable<ObjectSlot> sem_slots_;  ///< index into sems_
  std::vector<Semaphore> sems_;
  FlatTable<BarrierSlot> barriers_;
};


StreamingReconstructor::StreamingReconstructor(
    const AnalysisOverheads& overheads, const EventBasedOptions& options,
    std::size_t window, StreamSink& sink)
    : impl_(std::make_unique<Impl>(overheads, options, window, sink)) {}

StreamingReconstructor::~StreamingReconstructor() = default;

void StreamingReconstructor::push(const trace::Event* events, std::size_t n) {
  impl_->push(events, n);
}

EventBasedResult StreamingReconstructor::finish() { return impl_->finish(); }

std::uint64_t StreamingReconstructor::windows_processed() const noexcept {
  return impl_->windows_;
}
std::uint64_t StreamingReconstructor::segments_spilled() const noexcept {
  return impl_->spills_;
}
std::size_t StreamingReconstructor::resident_high_water() const noexcept {
  return impl_->resident_hwm_;
}
std::uint64_t StreamingReconstructor::events_pushed() const noexcept {
  return impl_->next_index_;
}

}  // namespace perturb::core
