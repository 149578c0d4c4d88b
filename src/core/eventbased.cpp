#include "core/eventbased.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
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

class Reconstructor {
 public:
  Reconstructor(const TraceIndex& index, const AnalysisOverheads& ov,
                const EventBasedOptions& opt)
      : idx_(index), measured_(index.trace()), ov_(ov), opt_(opt) {}

  EventBasedResult run() {
    const std::size_t n = measured_.size();
    t_a_.assign(n, 0);
    resolved_.assign(n, 0);
    resolve_all();
    return build_result();
  }

 private:
  /// Counting-semaphore dependency of acquire event i under the declared
  /// capacities: the k-th acquire (0-based) waits for the (k - capacity)-th
  /// release in measured order; the first `capacity` acquires take initial
  /// permits and have no cross dependency.  Returns {modeled, dep}: not
  /// modeled when the semaphore's capacity is unknown (time-based fallback).
  std::pair<bool, std::size_t> sem_dep(std::size_t i) const {
    const Event& e = measured_[i];
    const auto cap = opt_.semaphore_capacity.find(e.object);
    if (cap == opt_.semaphore_capacity.end()) return {false, kNone};
    const std::size_t k = idx_.sem_ordinal(i);
    if (k < static_cast<std::size_t>(cap->second)) return {true, kNone};
    const auto& releases = idx_.sem_releases(e.object);
    const std::size_t r = k - static_cast<std::size_t>(cap->second);
    return {true, r < releases.size() ? releases[r] : kNone};
  }

  // ---- resolution ---------------------------------------------------------

  /// Per-processor reconstruction state between synchronization points.
  ///
  /// Within a segment of independent execution the approximated time is
  /// computed *cumulatively* from the segment's basis —
  ///     t_a(e) = t_a(basis) + [t_m(e) - t_m(basis)] - sum(alpha since basis)
  /// — so per-event probe-cost jitter telescopes instead of accumulating
  /// through per-gap clamping.  The basis is re-anchored at every event whose
  /// time comes from a dependency model (awaitE, lock acquire, barrier
  /// depart, loop fork).
  struct SegmentBasis {
    bool valid = false;
    Tick basis_ta = 0;
    Tick basis_tm = 0;
    Tick overhead = 0;  ///< mean probe overhead accrued since the basis
  };

  /// Base approximation: the de-perturbed measured gap from the event's
  /// causal predecessor — the loop spawn for a processor's first event in a
  /// parallel-loop episode (its own previous event happened before an idle
  /// stretch whose measured length is the *master's* perturbed time), the
  /// segment basis otherwise.  `fork` is the caller's idx_.fork_dep(i).
  Tick base_time(std::size_t i, std::size_t fork) {
    const Event& e = measured_[i];
    const Cycles alpha = ov_.probe_for(e.kind);
    if (fork != kNone) {
      Tick gap = (e.time - measured_[fork].time) - alpha;
      if (gap < 0) gap = 0;
      return t_a_[fork] + gap;
    }
    if (basis_.size() <= e.proc) basis_.resize(e.proc + 1u);
    SegmentBasis& seg = basis_[e.proc];
    if (!seg.valid) {
      const Tick t = e.time - alpha;
      return t < 0 ? 0 : t;
    }
    seg.overhead += alpha;
    Tick t = seg.basis_ta + (e.time - seg.basis_tm) - seg.overhead;
    if (t < seg.basis_ta) t = seg.basis_ta;
    return t;
  }

  /// Anchors a new segment basis at event `i` with approximated time `t`.
  void rebase(std::size_t i, Tick t) {
    const Event& e = measured_[i];
    if (basis_.size() <= e.proc) basis_.resize(e.proc + 1u);
    basis_[e.proc] = {true, t, e.time, 0};
  }

  /// Fused readiness test and resolution.  Checks event i's dependencies
  /// and, when all are resolved, computes its approximated time in the same
  /// pass, so each sync-table lookup happens once instead of once in ready()
  /// and again in resolve().  Returns false — with no side effects — while a
  /// dependency is still unresolved.
  bool try_resolve(std::size_t i) {
    const Event& e = measured_[i];
    const std::size_t fork = idx_.fork_dep(i);
    if (fork != kNone && !resolved_[fork]) return false;
    Tick t;
    bool anchored = false;  // time came from a dependency model
    switch (e.kind) {
      case EventKind::kAwaitEnd: {
        // A blocked awaitE is retried every resolution round; cache its
        // partner lookups so the sync-table binary searches run once per
        // event instead of once per retry.
        if (pending_.size() <= e.proc) pending_.resize(e.proc + 1u);
        PendingAwait& pending = pending_[e.proc];
        if (pending.event != i) {
          const SyncKey key{e.object, e.payload};
          pending = {i, idx_.last_advance(key),
                     idx_.last_await_begin(key, e.proc)};
        }
        const std::size_t adv = pending.advance;
        if (adv != kNone && !resolved_[adv]) return false;
        const std::size_t ab = pending.await_begin;
        if (adv == kNone || ab == kNone) {
          // Degenerate trace (missing partner events): fall back to the
          // time-based rule.
          t = base_time(i, fork);
          break;
        }
        anchored = true;
        const Tick advance_t = t_a_[adv];
        const Tick await_b_t = t_a_[ab];
        ++stats_.awaits_total;
        // Measured waiting is judged by the await's *duration*: the awaitE
        // timestamp is inflated by its own probe, and the advance timestamp
        // by the advance probe, so comparing raw cross-processor times
        // misclassifies near-simultaneous cases.
        const Cycles gamma = ov_.probe_for(EventKind::kAwaitEnd);
        const Tick nowait_span =
            ov_.s_nowait + gamma + std::max<Cycles>(4, gamma / 4);
        const bool waited_measured =
            measured_[i].time - measured_[ab].time > nowait_span;
        // Continuous form of the paper's two-branch formula: the await
        // completes either s_nowait after its begin or s_wait after the
        // advance, whichever is later.  At the branch boundary the two
        // expressions meet, so near-critical races do not amplify modelling
        // jitter the way a hard branch would.
        const Tick no_wait_t = await_b_t + ov_.s_nowait;
        const Tick wait_t = advance_t + ov_.s_wait;
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
          t = base_time(i, fork);
          break;
        }
        const std::size_t dep = idx_.lock_dep(i);
        if (dep != kNone && !resolved_[dep]) return false;
        anchored = true;
        // Conservative hand-off: the processor requests the lock immediately
        // after its previous recorded event; the lock becomes available when
        // the previous holder's (approximated) release completes.
        const std::size_t j = idx_.prev_on_proc(i);
        const Tick request = j == kNone ? 0 : t_a_[j];
        const Tick available = dep == kNone ? request : t_a_[dep];
        t = std::max(request, available) + ov_.lock_acquire;
        break;
      }
      case EventKind::kSemAcquire: {
        const auto [modeled, dep] = sem_dep(i);
        if (modeled && dep != kNone && !resolved_[dep]) return false;
        if (!modeled) {
          t = base_time(i, fork);  // capacity unknown: time-based fallback
          break;
        }
        anchored = true;
        const std::size_t j = idx_.prev_on_proc(i);
        const Tick request = j == kNone ? 0 : t_a_[j];
        const Tick available = dep == kNone ? request : t_a_[dep];
        t = std::max(request, available) + ov_.sem_acquire;
        break;
      }
      case EventKind::kBarrierDepart: {
        if (!opt_.model_barriers) {
          t = base_time(i, fork);
          break;
        }
        const auto* ep = idx_.barrier_episode(e.object, e.payload);
        Tick release = 0;
        if (ep != nullptr) {
          for (const std::size_t a : ep->arrivals)
            if (!resolved_[a]) return false;
          for (const std::size_t a : ep->arrivals)
            release = std::max(release, t_a_[a]);
        }
        anchored = true;
        t = release + ov_.barrier_depart;
        break;
      }
      default:
        t = base_time(i, fork);
        break;
    }
    // Per-processor monotonicity: the dependency models can only push events
    // later than the same-processor predecessor, never earlier.
    const std::size_t j = idx_.prev_on_proc(i);
    if (j != kNone) t = std::max(t, t_a_[j]);
    t_a_[i] = t;
    resolved_[i] = 1;
    // Dependency-model, fork, and segment-opening events anchor a new
    // independent-execution segment.
    const bool first_on_proc =
        basis_.size() <= e.proc || !basis_[e.proc].valid;
    if (anchored || first_on_proc || fork != kNone) rebase(i, t);
    return true;
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
    PERTURB_CHECK_MSG(
        remaining == 0,
        support::strf("event-based analysis deadlocked with %zu unresolved "
                      "events (inconsistent measured trace?)",
                      remaining));
  }

  // ---- output ------------------------------------------------------------

  EventBasedResult build_result() {
    Trace approx(measured_.info());
    approx.info().name = measured_.info().name + "/event-based";
    approx.events().reserve(measured_.size());
    // The monotonicity clamp makes t_a nondecreasing along every
    // per-processor chain, so the approximated trace is a k-way merge of the
    // chains keyed by (t_a, original index) — identical to the stable sort
    // by time of the re-timed events, without sorting all n of them.  With
    // at most one cursor per processor a linear min-scan beats a heap: the
    // scan is a handful of predictable compares per output event.
    struct Cursor {
      Tick t;
      std::size_t idx;
      trace::ProcId proc;
      std::size_t pos;
    };
    std::vector<Cursor> cursors;
    cursors.reserve(idx_.num_procs());
    for (std::size_t p = 0; p < idx_.num_procs(); ++p) {
      const auto evs = idx_.events_of(static_cast<trace::ProcId>(p));
      if (!evs.empty())
        cursors.push_back(
            {t_a_[evs[0]], evs[0], static_cast<trace::ProcId>(p), 0});
    }
    while (!cursors.empty()) {
      std::size_t best = 0;
      for (std::size_t k = 1; k < cursors.size(); ++k) {
        const Cursor& a = cursors[k];
        const Cursor& b = cursors[best];
        if (a.t < b.t || (a.t == b.t && a.idx < b.idx)) best = k;
      }
      Cursor& c = cursors[best];
      Event out = measured_[c.idx];
      out.time = c.t;
      approx.append(out);
      const auto evs = idx_.events_of(c.proc);
      if (++c.pos < evs.size()) {
        c.idx = evs[c.pos];
        c.t = t_a_[c.idx];
      } else {
        cursors[best] = cursors.back();
        cursors.pop_back();
      }
    }
    EventBasedResult result = std::move(stats_);
    result.approx = std::move(approx);
    return result;
  }

  const TraceIndex& idx_;
  const Trace& measured_;
  const AnalysisOverheads& ov_;
  const EventBasedOptions& opt_;

  /// Partner lookups of the awaitE a processor is currently blocked on.
  struct PendingAwait {
    std::size_t event = kNone;
    std::size_t advance = kNone;
    std::size_t await_begin = kNone;
  };

  std::vector<Tick> t_a_;
  std::vector<std::uint8_t> resolved_;  ///< flat flags; vector<bool> is slower
  std::vector<SegmentBasis> basis_;     ///< per-processor segment state
  std::vector<PendingAwait> pending_;   ///< per-processor awaitE memo
  EventBasedResult stats_;
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
  Trace approx(measured_info);
  approx.info().name = measured_info.name + "/event-based";
  approx.events().reserve(size());
  // Same linear min-scan k-way merge as the batch build_result: each chain
  // is nondecreasing in (t_a, measured index), so the merge equals a stable
  // sort by time of the re-timed events.
  struct Cursor {
    Tick t;
    std::size_t idx;
    std::size_t chain;
    std::size_t pos;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(chains_.size());
  for (std::size_t p = 0; p < chains_.size(); ++p)
    if (!chains_[p].empty())
      cursors.push_back(
          {chains_[p][0].event.time, chains_[p][0].index, p, 0});
  while (!cursors.empty()) {
    std::size_t best = 0;
    for (std::size_t k = 1; k < cursors.size(); ++k) {
      const Cursor& a = cursors[k];
      const Cursor& b = cursors[best];
      if (a.t < b.t || (a.t == b.t && a.idx < b.idx)) best = k;
    }
    Cursor& c = cursors[best];
    approx.append(chains_[c.chain][c.pos].event);
    if (++c.pos < chains_[c.chain].size()) {
      const RetimedEvent& next = chains_[c.chain][c.pos];
      c.t = next.event.time;
      c.idx = next.index;
    } else {
      cursors[best] = cursors.back();
      cursors.pop_back();
    }
  }
  chains_.clear();
  return approx;
}

/// Streaming mirror of the batch Reconstructor.  Dependencies on already
/// retired events are answered from small lookaside records created at
/// ingest (one per advance / lock release / semaphore release / loop spawn
/// / barrier episode / resolved await-begin) instead of from a TraceIndex,
/// and events wait in per-processor FIFO queues until their dependencies
/// resolve.  Every formula, clamp, stats update, and fallback matches
/// try_resolve in the batch Reconstructor above — when editing either,
/// update both (the stream_test fuzz grid holds them equal).
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

  /// Per-processor independent-execution segment state; see the batch
  /// Reconstructor's SegmentBasis.
  struct SegmentBasis {
    bool valid = false;
    Tick basis_ta = 0;
    Tick basis_tm = 0;
    Tick overhead = 0;
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

    // Fork tracking — the per-event transition of the index builders' scan.
    if (e.kind == EventKind::kLoopBegin) {
      pd.self = loop_recs_.size();
      loop_recs_.push_back({e.time, 0, false});
      open_loop_ = pd.self;
      if (joined_loop_.size() <= e.proc) joined_loop_.resize(e.proc + 1u, 0);
      joined_loop_[e.proc] = open_loop_ + 1;  // master's chain covers it
    } else if (e.kind == EventKind::kLoopEnd) {
      open_loop_ = kNone;
    } else if (open_loop_ != kNone) {
      if (joined_loop_.size() <= e.proc) joined_loop_.resize(e.proc + 1u, 0);
      if (joined_loop_[e.proc] != open_loop_ + 1) {
        joined_loop_[e.proc] = open_loop_ + 1;
        pd.fork = open_loop_;
      }
    }

    const SyncKey key{e.object, e.payload};
    switch (e.kind) {
      case EventKind::kAdvance:
        pd.rec = new_rec();
        advances_[key] = pd.rec;  // latest seen wins, like last_advance
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

  Tick base_time(const Pending& pd) {
    const Event& e = pd.e;
    const Cycles alpha = ov_.probe_for(e.kind);
    if (pd.fork != kNone) {
      const LoopRec& lr = loop_recs_[pd.fork];
      Tick gap = (e.time - lr.tm) - alpha;
      if (gap < 0) gap = 0;
      return lr.ta + gap;
    }
    if (basis_.size() <= e.proc) basis_.resize(e.proc + 1u);
    SegmentBasis& seg = basis_[e.proc];
    if (!seg.valid) {
      const Tick t = e.time - alpha;
      return t < 0 ? 0 : t;
    }
    seg.overhead += alpha;
    Tick t = seg.basis_ta + (e.time - seg.basis_tm) - seg.overhead;
    if (t < seg.basis_ta) t = seg.basis_ta;
    return t;
  }

  void rebase(const Event& e, Tick t) {
    if (basis_.size() <= e.proc) basis_.resize(e.proc + 1u);
    basis_[e.proc] = {true, t, e.time, 0};
  }

  /// Streaming try_resolve: false — with no side effects — while a
  /// dependency is unresolved (or, before end-of-stream, possibly not yet
  /// ingested).  The formulae are the batch Reconstructor's.
  bool try_resolve(Pending& pd) {
    const Event& e = pd.e;
    if (pd.fork != kNone && !loop_recs_[pd.fork].resolved) return false;
    Tick t;
    bool anchored = false;  // time came from a dependency model
    switch (e.kind) {
      case EventKind::kAwaitEnd: {
        const SyncKey key{e.object, e.payload};
        const auto adv = advances_.find(key);
        const DepRec* advrec = adv == advances_.end() ? nullptr : adv->second;
        // An unseen advance may still arrive; only end-of-stream makes the
        // batch reader's "no advance" (kNone) fallback definitive.
        if (advrec == nullptr && !eof_) return false;
        if (advrec != nullptr && !advrec->resolved) return false;
        const auto ab = awaitbs_.find(AwaitBKey{key, e.proc});
        if (advrec == nullptr || ab == awaitbs_.end()) {
          // Degenerate trace (missing partner events): fall back to the
          // time-based rule.
          t = base_time(pd);
          break;
        }
        anchored = true;
        const Tick advance_t = advrec->ta;
        const Tick await_b_t = ab->second.ta;
        ++stats_.awaits_total;
        const Cycles gamma = ov_.probe_for(EventKind::kAwaitEnd);
        const Tick nowait_span =
            ov_.s_nowait + gamma + std::max<Cycles>(4, gamma / 4);
        const bool waited_measured = e.time - ab->second.tm > nowait_span;
        // One await-end consumes one await-begin on its own processor:
        // retire the record so the lookaside tracks outstanding awaits
        // (O(window)), not every await in the trace.
        awaitbs_.erase(ab);
        const Tick no_wait_t = await_b_t + ov_.s_nowait;
        const Tick wait_t = advance_t + ov_.s_wait;
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
          t = base_time(pd);
          break;
        }
        if (pd.rec != nullptr && !pd.rec->resolved) return false;
        anchored = true;
        const Tick request = last_ta(e.proc);
        const Tick available = pd.rec == nullptr ? request : pd.rec->ta;
        t = std::max(request, available) + ov_.lock_acquire;
        break;
      }
      case EventKind::kSemAcquire: {
        const auto cap = opt_.semaphore_capacity.find(e.object);
        if (cap == opt_.semaphore_capacity.end()) {
          t = base_time(pd);  // capacity unknown: time-based fallback
          break;
        }
        const DepRec* dep = nullptr;
        if (pd.self >= static_cast<std::size_t>(cap->second)) {
          const std::size_t r =
              pd.self - static_cast<std::size_t>(cap->second);
          const auto rel = sem_releases_.find(e.object);
          const std::size_t have =
              rel == sem_releases_.end() ? 0 : rel->second.size();
          if (r < have) {
            dep = rel->second[r];
          } else if (!eof_) {
            return false;  // the release may still arrive
          }
        }
        if (dep != nullptr && !dep->resolved) return false;
        anchored = true;
        const Tick request = last_ta(e.proc);
        const Tick available = dep == nullptr ? request : dep->ta;
        t = std::max(request, available) + ov_.sem_acquire;
        break;
      }
      case EventKind::kBarrierDepart: {
        if (!opt_.model_barriers) {
          t = base_time(pd);
          break;
        }
        // Arrivals precede departures in any consistent episode, so every
        // arrival is already ingested (seen) by the time the departure is
        // at its queue head — the seen count equals the episode's full
        // arrival list.
        const auto it = barriers_.find(SyncKey{e.object, e.payload});
        Tick release = 0;
        if (it != barriers_.end()) {
          if (it->second.resolved < it->second.seen) return false;
          release = it->second.max_ta;
        }
        anchored = true;
        t = release + ov_.barrier_depart;
        break;
      }
      default:
        t = base_time(pd);
        break;
    }
    // Per-processor monotonicity: the dependency models can only push events
    // later than the same-processor predecessor, never earlier.
    if (e.proc < has_last_.size() && has_last_[e.proc])
      t = std::max(t, last_ta_[e.proc]);

    // Publish this event as a dependency source.
    switch (e.kind) {
      case EventKind::kAdvance:
      case EventKind::kLockRelease:
      case EventKind::kSemRelease:
        pd.rec->ta = t;
        pd.rec->resolved = true;
        break;
      case EventKind::kAwaitBegin:
        awaitbs_[AwaitBKey{SyncKey{e.object, e.payload}, e.proc}] = {t, e.time};
        break;
      case EventKind::kBarrierArrive: {
        BarrierRec& br = barriers_[SyncKey{e.object, e.payload}];
        ++br.resolved;
        br.max_ta = std::max(br.max_ta, t);
        break;
      }
      case EventKind::kLoopBegin: {
        LoopRec& lr = loop_recs_[pd.self];
        lr.ta = t;
        lr.resolved = true;
        break;
      }
      default:
        break;
    }

    if (has_last_.size() <= e.proc) {
      has_last_.resize(e.proc + 1u, 0);
      last_ta_.resize(e.proc + 1u, 0);
    }
    const bool first_on_proc =
        basis_.size() <= e.proc || !basis_[e.proc].valid;
    has_last_[e.proc] = 1;
    last_ta_[e.proc] = t;
    if (anchored || first_on_proc || pd.fork != kNone) rebase(e, t);
    // Retire: the pending event now carries its approximated time.
    pd.e.time = t;
    return true;
  }

  Tick last_ta(trace::ProcId proc) const {
    return proc < has_last_.size() && has_last_[proc] ? last_ta_[proc] : 0;
  }

  /// Round-robin over the per-processor queues until a full pass makes no
  /// progress, spilling each processor's resolved run as one segment.
  void drain() {
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t p = 0; p < queues_.size(); ++p) {
        auto& q = queues_[p];
        scratch_.clear();
        while (!q.empty() && try_resolve(q.front())) {
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
    PERTURB_CHECK_MSG(
        resident_ == 0,
        support::strf("event-based analysis deadlocked with %zu unresolved "
                      "events (inconsistent measured trace?)",
                      resident_));
    return std::move(stats_);
  }

  const AnalysisOverheads ov_;
  const EventBasedOptions opt_;
  const std::size_t window_;
  StreamSink* sink_;

  bool eof_ = false;
  std::size_t next_index_ = 0;
  std::size_t resident_ = 0;
  std::size_t resident_hwm_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t spills_ = 0;

  std::vector<std::deque<Pending>> queues_;  ///< by processor
  std::vector<RetimedEvent> scratch_;

  // Ingest-side scan state (fork / ordinal assignment).
  std::vector<std::size_t> joined_loop_;  ///< by proc; loop ordinal + 1
  std::size_t open_loop_ = kNone;
  std::unordered_map<trace::ObjectId, std::size_t> sem_acquire_count_;
  std::unordered_map<trace::ObjectId, DepRec*> lock_latest_;

  // Dependency lookasides.  DepRecs are arena-allocated (16 bytes apiece, no
  // per-record malloc): sync state is the only reconstructor footprint that
  // scales with the trace, so its constant factor decides how far streaming
  // undercuts batch peak RSS.
  std::deque<DepRec> dep_arena_;
  std::vector<LoopRec> loop_recs_;
  std::unordered_map<SyncKey, DepRec*, trace::SyncKeyHash> advances_;
  std::unordered_map<AwaitBKey, AwaitBRec, AwaitBKeyHash> awaitbs_;
  std::unordered_map<trace::ObjectId, std::vector<DepRec*>> sem_releases_;
  std::unordered_map<SyncKey, BarrierRec, trace::SyncKeyHash> barriers_;

  // Resolution-side per-processor state.
  std::vector<SegmentBasis> basis_;
  std::vector<Tick> last_ta_;
  std::vector<std::uint8_t> has_last_;

  EventBasedResult stats_;
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
