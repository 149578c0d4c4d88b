#include "trace/validate.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>
#include <map>
#include <unordered_map>
#include <vector>

#include "support/text.hpp"

namespace perturb::trace {

using support::strf;

const char* violation_kind_name(ViolationKind kind) noexcept {
  switch (kind) {
    case ViolationKind::kNonMonotoneProcessorTime: return "non-monotone-proc-time";
    case ViolationKind::kAwaitEndBeforeAdvance: return "awaitE-before-advance";
    case ViolationKind::kAwaitEndWithoutAdvance: return "awaitE-without-advance";
    case ViolationKind::kAwaitEndWithoutBegin: return "awaitE-without-awaitB";
    case ViolationKind::kDuplicateAdvance: return "duplicate-advance";
    case ViolationKind::kLockOverlap: return "lock-overlap";
    case ViolationKind::kLockUnbalanced: return "lock-unbalanced";
    case ViolationKind::kBarrierOrder: return "barrier-order";
    case ViolationKind::kBarrierIncomplete: return "barrier-incomplete";
    case ViolationKind::kSemaphoreUnbalanced: return "semaphore-unbalanced";
  }
  return "unknown";
}

namespace {

constexpr std::size_t kNoEvent = static_cast<std::size_t>(-1);

/// Structural checks over the shared TraceIndex, fused into one pass over
/// the trace.  Each check appends to its own violation list so the combined
/// report keeps the historical per-check grouping (monotonicity, then
/// advance/await, then locks, semaphores, barriers) with every group in
/// ascending event order — the triage order the repair strategies expect.
class Validator {
 public:
  Validator(const TraceIndex& index, const ValidateOptions& options)
      : idx_(index), trace_(index.trace()), slack_(options.sync_slack) {}

  std::vector<Violation> run() {
    scan();
    finish_locks();
    finish_semaphores();
    finish_barriers();

    std::vector<Violation> out;
    out.reserve(mono_.size() + dup_.size() + await_.size() + locks_.size() +
                sems_.size() + barriers_.size());
    for (auto* v : {&mono_, &dup_, &await_, &locks_, &sems_, &barriers_}) {
      out.insert(out.end(), std::make_move_iterator(v->begin()),
                 std::make_move_iterator(v->end()));
    }
    return out;
  }

 private:
  struct PendingAcquire {
    std::size_t index;   ///< trace index of the parked acquire
    Tick release_time;   ///< its own release's timestamp, once seen
    ProcId proc;
    ProcId seen_holder;  ///< who appeared to hold the lock at park time
    bool released;
  };

  struct LockState {
    bool held = false;
    ProcId holder = 0;
    /// Acquires observed while the lock looked held (slack mode only),
    /// awaiting the delayed release event that explains them.
    std::deque<PendingAcquire> pending;
  };

  static void add(std::vector<Violation>& sink, ViolationKind kind,
                  std::size_t index, std::string msg) {
    sink.push_back({kind, std::move(msg), index});
  }

  void scan() {
    const std::size_t procs = idx_.num_procs();
    // Per-processor monotonicity state.
    std::vector<Tick> running_max(procs, 0);
    std::vector<std::uint8_t> started(procs, 0);

    // Duplicate advances are a violation wherever they appear; the index
    // preserves them in trace order.
    for (const std::size_t i : idx_.duplicate_advances()) {
      const Event& e = trace_[i];
      add(dup_, ViolationKind::kDuplicateAdvance, i,
          strf("advance(%u, %lld) repeated", unsigned(e.object),
               static_cast<long long>(e.payload)));
    }

    for (std::size_t i = 0; i < trace_.size(); ++i) {
      const Event& e = trace_[i];
      const auto p = static_cast<std::size_t>(e.proc);

      // Per-processor time must never run backwards.
      if (!started[p]) {
        started[p] = 1;
        running_max[p] = e.time;
      } else {
        if (e.time < running_max[p]) {
          add(mono_, ViolationKind::kNonMonotoneProcessorTime, i,
              strf("proc %u: time %lld after %lld", unsigned(e.proc),
                   static_cast<long long>(e.time),
                   static_cast<long long>(running_max[p])));
        }
        running_max[p] = std::max(running_max[p], e.time);
      }

      switch (e.kind) {
        case EventKind::kAwaitEnd: check_await_end(i, e); break;
        case EventKind::kLockAcquire:
        case EventKind::kLockRelease: check_lock(i, e); break;
        case EventKind::kSemAcquire:
        case EventKind::kSemRelease: check_semaphore(i, e); break;
        case EventKind::kBarrierArrive:
        case EventKind::kBarrierDepart: check_barrier(i, e); break;
        default: break;
      }
    }
  }

  /// An awaitE is checked against its *first* advance even when the advance
  /// appears later in trace order (which is itself the
  /// kAwaitEndBeforeAdvance violation).  The index answers both partner
  /// lookups in O(1) on well-formed traces.
  void check_await_end(std::size_t i, const Event& e) {
    if (idx_.await_begin_before(i) == TraceIndex::npos) {
      add(await_, ViolationKind::kAwaitEndWithoutBegin, i,
          strf("awaitE(%u, %lld) without awaitB on proc %u",
               unsigned(e.object), static_cast<long long>(e.payload),
               unsigned(e.proc)));
    }
    const std::size_t adv = idx_.first_advance_of(i);
    if (adv == TraceIndex::npos) {
      add(await_, ViolationKind::kAwaitEndWithoutAdvance, i,
          strf("awaitE(%u, %lld) with no advance", unsigned(e.object),
               static_cast<long long>(e.payload)));
    } else if (e.time + slack_ < trace_[adv].time) {
      add(await_, ViolationKind::kAwaitEndBeforeAdvance, i,
          strf("awaitE(%u, %lld) at %lld precedes advance at %lld",
               unsigned(e.object), static_cast<long long>(e.payload),
               static_cast<long long>(e.time),
               static_cast<long long>(trace_[adv].time)));
    }
  }

  /// Acquisitions and releases must alternate globally per lock; the
  /// hand-off order itself (previous release of each acquire) comes from
  /// the index, the held/holder alternation state is a running scan.
  ///
  /// With a nonzero slack the alternation check tolerates probe-reordered
  /// hand-offs.  The recorder stamps each event after charging its probe,
  /// but a release makes the lock visible to waiters *before* the release
  /// probe runs, so in measured traces the hand-off acquire can carry an
  /// earlier timestamp than the release that granted it.  Acquires seen
  /// while the lock looks held are parked and resolved against the next
  /// release(s); only overlaps wider than the slack are violations.
  void check_lock(std::size_t i, const Event& e) {
    auto& st = lock_state_[e.object];
    if (e.kind == EventKind::kLockAcquire) {
      if (st.held) {
        if (slack_ > 0) {
          st.pending.push_back({i, 0, e.proc, st.holder, false});
          return;
        }
        add(locks_, ViolationKind::kLockUnbalanced, i,
            strf("lock %u acquired by proc %u while held by proc %u",
                 unsigned(e.object), unsigned(e.proc), unsigned(st.holder)));
      } else {
        const std::size_t dep = idx_.lock_dep(i);
        if (dep != TraceIndex::npos && e.time + slack_ < trace_[dep].time) {
          add(locks_, ViolationKind::kLockOverlap, i,
              strf("lock %u acquired at %lld before previous release at %lld",
                   unsigned(e.object), static_cast<long long>(e.time),
                   static_cast<long long>(trace_[dep].time)));
        }
      }
      st.held = true;
      st.holder = e.proc;
      return;
    }
    if (st.held && st.holder == e.proc) {
      st.held = false;
      resolve_pending(e.object, st, e.time);
      return;
    }
    // A hand-off acquirer can run its whole critical section before the
    // previous holder's delayed release event appears; its release then
    // closes the parked acquire rather than the visible holder's.
    for (auto& pa : st.pending) {
      if (!pa.released && pa.proc == e.proc) {
        pa.released = true;
        pa.release_time = e.time;
        return;
      }
    }
    add(locks_, ViolationKind::kLockUnbalanced, i,
        strf("lock %u released by proc %u without matching acquire",
             unsigned(e.object), unsigned(e.proc)));
    st.held = false;
  }

  /// Pops parked acquires explained by the release at `free_time`.  Each
  /// entry must overlap its explaining release by at most the slack; the
  /// first entry whose release is still outstanding becomes the holder, and
  /// already-closed entries chain the explanation to their own release.
  void resolve_pending(ObjectId obj, LockState& st, Tick free_time) {
    while (!st.pending.empty()) {
      const PendingAcquire pa = st.pending.front();
      st.pending.pop_front();
      if (trace_[pa.index].time + slack_ < free_time) {
        add(locks_, ViolationKind::kLockUnbalanced, pa.index,
            strf("lock %u acquired by proc %u while held by proc %u",
                 unsigned(obj), unsigned(pa.proc), unsigned(pa.seen_holder)));
      }
      if (!pa.released) {
        st.held = true;
        st.holder = pa.proc;
        return;
      }
      free_time = pa.release_time;
    }
  }

  void finish_locks() {
    for (const auto& [obj, st] : lock_state_) {
      if (st.held)
        add(locks_, ViolationKind::kLockUnbalanced, kNoEvent,
            strf("lock %u never released", unsigned(obj)));
      // Parked acquires with no explaining release are real overlaps.
      for (const auto& pa : st.pending) {
        add(locks_, ViolationKind::kLockUnbalanced, pa.index,
            strf("lock %u acquired by proc %u while held by proc %u",
                 unsigned(obj), unsigned(pa.proc), unsigned(pa.seen_holder)));
      }
    }
    // Deferred resolution emits out of scan order; restore the ascending
    // event order the repair triage expects (kNoEvent sorts last).
    if (slack_ > 0) {
      std::stable_sort(locks_.begin(), locks_.end(),
                       [](const Violation& a, const Violation& b) {
                         return a.event_index < b.event_index;
                       });
    }
  }

  /// Capacity is not recorded in the trace, so the checkable rules are
  /// per-processor: every V() must release a P() held by the same
  /// processor, and no P() may be left held at the end.
  void check_semaphore(std::size_t i, const Event& e) {
    if (e.kind == EventKind::kSemAcquire) {
      ++sem_held_[{e.object, e.proc}];
    } else {
      auto& h = sem_held_[{e.object, e.proc}];
      if (h <= 0) {
        add(sems_, ViolationKind::kSemaphoreUnbalanced, i,
            strf("semaphore %u released by proc %u without a held acquire",
                 unsigned(e.object), unsigned(e.proc)));
      } else {
        --h;
      }
    }
  }

  void finish_semaphores() {
    for (const auto& [key, count] : sem_held_) {
      if (count > 0)
        add(sems_, ViolationKind::kSemaphoreUnbalanced, kNoEvent,
            strf("semaphore %u: proc %u ends holding %lld permit(s)",
                 unsigned(key.first), unsigned(key.second),
                 static_cast<long long>(count)));
    }
  }

  /// Latest arrival time among `episode`'s arrivals before trace index i.
  Tick last_arrive_before(const TraceIndex::BarrierEpisode& episode,
                          std::size_t i) const {
    Tick last = 0;
    for (const std::size_t a : episode.arrivals) {
      if (a >= i) break;  // arrivals are in trace order
      last = std::max(last, trace_[a].time);
    }
    return last;
  }

  /// Events carry payload = episode index.  Within an episode, every arrive
  /// must precede every depart, and the counts must match.
  void check_barrier(std::size_t i, const Event& e) {
    if (e.kind == EventKind::kBarrierArrive) {
      const auto* ep = idx_.barrier_episode(e.object, e.payload);
      if (ep != nullptr && !ep->departs.empty() && ep->departs.front() < i)
        add(barriers_, ViolationKind::kBarrierOrder, i,
            strf("barrier %u episode %lld: arrive after a depart",
                 unsigned(e.object), static_cast<long long>(e.payload)));
    } else {
      const auto* ep = idx_.barrier_episode(e.object, e.payload);
      const Tick last_arrive = ep == nullptr ? 0 : last_arrive_before(*ep, i);
      if (e.time + slack_ < last_arrive)
        add(barriers_, ViolationKind::kBarrierOrder, i,
            strf("barrier %u episode %lld: depart at %lld before last "
                 "arrive at %lld",
                 unsigned(e.object), static_cast<long long>(e.payload),
                 static_cast<long long>(e.time),
                 static_cast<long long>(last_arrive)));
    }
  }

  void finish_barriers() {
    for (const auto& ep : idx_.barrier_episodes()) {
      if (ep.arrivals.size() != ep.departs.size())
        add(barriers_, ViolationKind::kBarrierIncomplete, kNoEvent,
            strf("barrier %u episode %lld: %zu arrivals, %zu departures",
                 unsigned(ep.key.object), static_cast<long long>(ep.key.index),
                 ep.arrivals.size(), ep.departs.size()));
    }
  }

  const TraceIndex& idx_;
  const Trace& trace_;
  Tick slack_;
  std::unordered_map<ObjectId, LockState> lock_state_;
  std::map<std::pair<ObjectId, ProcId>, std::int64_t> sem_held_;
  std::vector<Violation> mono_;
  std::vector<Violation> dup_;
  std::vector<Violation> await_;
  std::vector<Violation> locks_;
  std::vector<Violation> sems_;
  std::vector<Violation> barriers_;
};

}  // namespace

std::vector<Violation> validate(const Trace& trace,
                                const ValidateOptions& options) {
  const TraceIndex index(trace);
  return Validator(index, options).run();
}

std::vector<Violation> validate(const TraceIndex& index,
                                const ValidateOptions& options) {
  return Validator(index, options).run();
}

bool is_valid(const Trace& trace, const ValidateOptions& options) {
  return validate(trace, options).empty();
}

std::string describe(const std::vector<Violation>& violations) {
  std::string out;
  for (const auto& v : violations) {
    out += violation_kind_name(v.kind);
    out += ": ";
    out += v.message;
    out += '\n';
  }
  return out;
}

}  // namespace perturb::trace
