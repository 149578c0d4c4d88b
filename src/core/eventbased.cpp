#include "core/eventbased.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
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

    Dep resolved(std::size_t j) const {
      if (j == kNone) return Dep::absent();
      return r.resolved_[j] ? Dep::ready(r.t_a_[j]) : Dep::blocked();
    }
    Dep fork() const {
      const std::size_t f = r.idx_.fork_dep(i);
      Dep d = resolved(f);
      if (!d.is_absent()) d.tm = r.measured_[f].time;
      return d;
    }
    // An awaitE's partners: the index answers both in O(1) on traces
    // without duplicate keys, so a blocked awaitE's retries cost nothing.
    Dep advance() const { return resolved(r.idx_.last_advance_of(i)); }
    Dep await_begin() const {
      const std::size_t ab = r.idx_.last_await_begin_of(i);
      if (ab == kNone) return Dep::absent();
      return Dep::ready(r.t_a_[ab], r.measured_[ab].time);
    }
    void retire_await_begin() const {}
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
        if (!r.resolved_[a]) return Dep::blocked();
        latest = std::max(latest, r.t_a_[a]);
      }
      return Dep::ready(latest);
    }
    void publish(Tick t) const {
      r.t_a_[i] = t;
      r.resolved_[i] = 1;
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

  std::vector<Tick> t_a_;
  std::vector<std::uint8_t> resolved_;  ///< flat flags; vector<bool> is slower
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

/// Streamed reconstruction with the batch reconstructor's Retimer.
/// Dependencies on already retired events are answered from small lookaside
/// records created at ingest (one per advance / lock release / semaphore
/// release / loop spawn / barrier episode / resolved await-begin) instead of
/// from a TraceIndex, and events wait in per-processor FIFO queues until
/// their dependencies resolve.  Before end-of-stream a partner that has not
/// been ingested yet may still arrive, so it blocks instead of being absent.
struct StreamingReconstructor::Impl {
  /// A dependency source's approximated time, shared between the pending
  /// event that will resolve it and everyone captured a reference to it.
  struct DepRec {
    Tick ta = 0;
    bool resolved = false;
  };

  /// One LoopBegin: fork dependents need both its measured and approximated
  /// times.
  struct LoopRec {
    Tick tm = 0;
    Tick ta = 0;
    bool resolved = false;
  };

  /// A resolved await-begin's approximated and measured times.
  struct AwaitBRec {
    Tick ta = 0;
    Tick tm = 0;
  };

  struct BarrierRec {
    std::size_t seen = 0;      ///< arrivals ingested
    std::size_t resolved = 0;  ///< arrivals resolved
    Tick max_ta = 0;
  };

  /// An ingested, not yet resolved event.  `rec` is the event's own DepRec
  /// (advance, lock/semaphore release) or its captured dependency (lock
  /// acquire); `self` is a LoopBegin's loop ordinal or a SemAcquire's
  /// per-object acquire ordinal.  DepRecs live in `dep_arena_` (a deque:
  /// appends never move existing elements), so a plain pointer stays valid
  /// for the reconstructor's lifetime — no per-record heap allocation.
  struct Pending {
    Event e;
    std::size_t index = 0;
    std::size_t fork = kNone;  ///< loop ordinal of the fork dependency
    std::size_t self = kNone;
    DepRec* rec = nullptr;
  };

  struct AwaitBKey {
    SyncKey key;
    trace::ProcId proc = 0;
    friend bool operator==(const AwaitBKey&, const AwaitBKey&) = default;
  };
  struct AwaitBKeyHash {
    std::size_t operator()(const AwaitBKey& k) const noexcept {
      return trace::SyncKeyHash{}(k.key) * 1000003u + k.proc;
    }
  };
  using AwaitBMap = std::unordered_map<AwaitBKey, AwaitBRec, AwaitBKeyHash>;

  /// Pending event `pd`'s dependencies, answered from the lookasides.
  struct Source {
    Impl& s;
    Pending& pd;
    AwaitBMap::iterator await_begin_{};

    static Dep of(const DepRec* rec) {
      if (rec == nullptr) return Dep::absent();
      return rec->resolved ? Dep::ready(rec->ta) : Dep::blocked();
    }
    /// A partner not ingested yet: absent only once the stream has ended.
    Dep unseen() const { return s.eof_ ? Dep::absent() : Dep::blocked(); }

    Dep fork() const {
      if (pd.fork == kNone) return Dep::absent();
      const LoopRec& lr = s.loop_recs_[pd.fork];
      return lr.resolved ? Dep::ready(lr.ta, lr.tm) : Dep::blocked();
    }
    Dep advance() const {
      // Latest seen wins, like TraceIndex::last_advance.
      const auto it = s.advances_.find(SyncKey{pd.e.object, pd.e.payload});
      return it == s.advances_.end() ? unseen() : of(it->second);
    }
    Dep await_begin() {
      await_begin_ = s.awaitbs_.find(
          AwaitBKey{SyncKey{pd.e.object, pd.e.payload}, pd.e.proc});
      if (await_begin_ == s.awaitbs_.end()) return Dep::absent();
      return Dep::ready(await_begin_->second.ta, await_begin_->second.tm);
    }
    /// One await-end consumes one await-begin on its own processor: the
    /// lookaside tracks outstanding awaits (O(window)), not every await.
    void retire_await_begin() { s.awaitbs_.erase(await_begin_); }
    Dep lock_release() const { return of(pd.rec); }
    std::size_t sem_ordinal() const { return pd.self; }
    Dep sem_release(std::size_t k) const {
      const auto rel = s.sem_releases_.find(pd.e.object);
      if (rel == s.sem_releases_.end() || k >= rel->second.size())
        return unseen();
      return of(rel->second[k]);
    }
    Dep barrier_arrivals() const {
      // Arrivals precede departures in any consistent episode, so every
      // arrival is already ingested (seen) by the time the departure is at
      // its queue head — the seen count is the episode's full arrival list.
      const auto it = s.barriers_.find(SyncKey{pd.e.object, pd.e.payload});
      if (it == s.barriers_.end()) return Dep::absent();
      if (it->second.resolved < it->second.seen) return Dep::blocked();
      return Dep::ready(it->second.max_ta);
    }
    /// Publishes the event as a dependency source and retires it with its
    /// approximated time.
    void publish(Tick t) {
      const Event& e = pd.e;
      switch (e.kind) {
        case EventKind::kAdvance:
        case EventKind::kLockRelease:
        case EventKind::kSemRelease:
          pd.rec->ta = t;
          pd.rec->resolved = true;
          break;
        case EventKind::kAwaitBegin:
          s.awaitbs_[AwaitBKey{SyncKey{e.object, e.payload}, e.proc}] = {
              t, e.time};
          break;
        case EventKind::kBarrierArrive: {
          BarrierRec& br = s.barriers_[SyncKey{e.object, e.payload}];
          ++br.resolved;
          br.max_ta = std::max(br.max_ta, t);
          break;
        }
        case EventKind::kLoopBegin:
          s.loop_recs_[pd.self].ta = t;
          s.loop_recs_[pd.self].resolved = true;
          break;
        default:
          break;
      }
      pd.e.time = t;
    }
  };

  Impl(const AnalysisOverheads& overheads, const EventBasedOptions& options,
       std::size_t window, StreamSink& sink)
      : ov_(overheads), opt_(options), window_(window), sink_(&sink) {}

  // ---- ingest -------------------------------------------------------------

  DepRec* new_rec() {
    dep_arena_.emplace_back();
    return &dep_arena_.back();
  }

  void push(const Event* events, std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) ingest(events[k]);
    if (resident_ >= window_) {
      ++windows_;
      drain();
    }
  }

  void ingest(const Event& e) {
    Pending pd;
    pd.e = e;
    pd.index = next_index_++;
    pd.fork = forks_.step(e);

    const SyncKey key{e.object, e.payload};
    switch (e.kind) {
      case EventKind::kLoopBegin:
        pd.self = loop_recs_.size();
        loop_recs_.push_back({e.time, 0, false});
        break;
      case EventKind::kAdvance:
        pd.rec = new_rec();
        advances_[key] = pd.rec;
        break;
      case EventKind::kLockRelease:
        pd.rec = new_rec();
        lock_latest_[e.object] = pd.rec;
        break;
      case EventKind::kLockAcquire: {
        // Captured at ingest == the latest release *before* this event,
        // exactly TraceIndex::lock_dep.
        const auto it = lock_latest_.find(e.object);
        if (it != lock_latest_.end()) pd.rec = it->second;
        break;
      }
      case EventKind::kSemAcquire:
        pd.self = sem_acquire_count_[e.object]++;
        break;
      case EventKind::kSemRelease:
        pd.rec = new_rec();
        sem_releases_[e.object].push_back(pd.rec);
        break;
      case EventKind::kBarrierArrive:
        ++barriers_[key].seen;
        break;
      default:
        break;
    }

    if (queues_.size() <= e.proc) queues_.resize(e.proc + 1u);
    queues_[e.proc].push_back(std::move(pd));
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
        auto& q = queues_[p];
        scratch_.clear();
        while (!q.empty()) {
          Source src{*this, q.front()};
          if (!retimer_.try_resolve(q.front().e, src)) break;
          scratch_.push_back({q.front().e, q.front().index});
          q.pop_front();
          --resident_;
          progress = true;
        }
        if (!scratch_.empty()) {
          sink_->on_segment(static_cast<trace::ProcId>(p), scratch_.data(),
                            scratch_.size());
          ++spills_;
        }
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

  std::vector<std::deque<Pending>> queues_;  ///< by processor
  std::vector<RetimedEvent> scratch_;

  // Ingest-side scan state (fork / ordinal assignment).
  trace::ForkScan forks_;
  std::unordered_map<trace::ObjectId, std::size_t> sem_acquire_count_;
  std::unordered_map<trace::ObjectId, DepRec*> lock_latest_;

  // Dependency lookasides.  DepRecs are arena-allocated (16 bytes apiece, no
  // per-record malloc): sync state is the only reconstructor footprint that
  // scales with the trace, so its constant factor decides how far streaming
  // undercuts batch peak RSS.
  std::deque<DepRec> dep_arena_;
  std::vector<LoopRec> loop_recs_;
  std::unordered_map<SyncKey, DepRec*, trace::SyncKeyHash> advances_;
  AwaitBMap awaitbs_;
  std::unordered_map<trace::ObjectId, std::vector<DepRec*>> sem_releases_;
  std::unordered_map<SyncKey, BarrierRec, trace::SyncKeyHash> barriers_;
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
