#include "trace/index.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/parallel.hpp"
#include "support/text.hpp"

namespace perturb::trace {

namespace {

const std::vector<std::size_t>& empty_index_list() {
  static const std::vector<std::size_t> empty;
  return empty;
}

}  // namespace

void TraceIndex::require_indexable(std::size_t events) {
  PERTURB_CHECK_MSG(
      events < kMaxEvents,
      support::strf("a trace of %zu events is too long to index (the limit "
                    "is 2^32 - 2 events)",
                    events));
}

TraceIndex::TraceIndex(const Trace& trace) : trace_(&trace) {
  build(nullptr);
}

TraceIndex::TraceIndex(const Trace& trace, support::TaskPool& pool)
    : trace_(&trace) {
  build(&pool);
}

// Batch builder.  Two independent scans (per-processor chains by counting
// sort; one structural pass for sync/loop/iteration tables), then three
// independent table sorts.  ProcId is 16-bit, so proc-indexed vectors
// replace per-event hash lookups; duplicate advances are found in one pass
// over the sorted advance table (entries after the first of an equal-key
// run, restored to trace order).  Every answer matches the committed digests
// of the original map-based builder (tests/golden_digests.hpp).
void TraceIndex::build(support::TaskPool* pool) {
  const Trace& trace = *trace_;
  const std::size_t n = trace.size();
  require_indexable(n);
  prev_on_proc_.resize(n);

  std::vector<std::pair<SyncKey, std::size_t>> advance_entries;
  std::vector<std::pair<AwaitKey, std::size_t>> await_entries;

  auto build_chains = [&] {
    std::vector<std::size_t> counts;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t p = trace[i].proc;
      if (counts.size() <= p) counts.resize(p + 1u, 0);
      ++counts[p];
    }
    proc_events_.resize(counts.size());
    for (std::size_t p = 0; p < counts.size(); ++p)
      proc_events_[p].reserve(counts[p]);
    std::vector<std::uint32_t> last(counts.size(), kNone32);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t p = trace[i].proc;
      const auto i32 = static_cast<std::uint32_t>(i);
      prev_on_proc_[i] = last[p];
      last[p] = i32;
      proc_events_[p].push_back(i32);
    }
  };

  auto build_structure = [&] {
    std::unordered_map<ObjectId, std::size_t> last_release;
    std::unordered_map<ObjectId, std::size_t> sem_acquire_count;
    std::vector<std::size_t> open_iter;    // by proc; npos = none open
    std::vector<std::size_t> joined_loop;  // by proc; loop ordinal + 1
    std::size_t open_loop = npos;

    for (std::size_t i = 0; i < n; ++i) {
      const Event& e = trace[i];

      // Fork tracking: inside a parallel-loop episode, a processor's first
      // event depends on the loop's spawn, not on that processor's previous
      // event (it was idle through the master's sequential section).
      if (e.kind == EventKind::kLoopBegin) {
        open_loop = loops_.size();
        loops_.push_back({i, npos, e.object, e.proc});
        if (joined_loop.size() <= e.proc) joined_loop.resize(e.proc + 1u, 0);
        joined_loop[e.proc] = open_loop + 1;  // master's chain covers it
      } else if (e.kind == EventKind::kLoopEnd) {
        if (open_loop != npos) loops_[open_loop].end_index = i;
        open_loop = npos;
      } else if (open_loop != npos) {
        if (joined_loop.size() <= e.proc) joined_loop.resize(e.proc + 1u, 0);
        if (joined_loop[e.proc] != open_loop + 1) {
          joined_loop[e.proc] = open_loop + 1;
          set_entry(fork_dep_, n, i, loops_[open_loop].begin_index);
        }
      }

      const SyncKey key{e.object, e.payload};
      switch (e.kind) {
        case EventKind::kAdvance:
          advance_entries.emplace_back(key, i);
          break;
        case EventKind::kAwaitBegin:
          await_entries.emplace_back(AwaitKey{key, e.proc}, i);
          break;
        case EventKind::kLockAcquire: {
          const auto lr = last_release.find(e.object);
          if (lr != last_release.end()) set_entry(lock_dep_, n, i, lr->second);
          break;
        }
        case EventKind::kLockRelease:
          last_release[e.object] = i;
          break;
        case EventKind::kSemAcquire:
          set_entry(sem_ordinal_, n, i, sem_acquire_count[e.object]++);
          break;
        case EventKind::kSemRelease:
          sem_releases_[e.object].push_back(i);
          break;
        case EventKind::kBarrierArrive:
        case EventKind::kBarrierDepart: {
          const auto [it, inserted] =
              barrier_slot_.insert({key, barriers_.size()});
          if (inserted) barriers_.push_back({key, {}, {}});
          BarrierEpisode& ep = barriers_[it->second];
          (e.kind == EventKind::kBarrierArrive ? ep.arrivals : ep.departs)
              .push_back(i);
          break;
        }
        case EventKind::kIterBegin: {
          if (open_iter.size() <= e.proc) open_iter.resize(e.proc + 1u, npos);
          open_iter[e.proc] = iters_.size();
          iters_.push_back({i, npos, e.payload, e.object, e.proc});
          break;
        }
        case EventKind::kIterEnd: {
          if (e.proc < open_iter.size() && open_iter[e.proc] != npos) {
            iters_[open_iter[e.proc]].end_index = i;
            open_iter[e.proc] = npos;
          }
          break;
        }
        default:
          break;
      }
    }
  };

  if (pool != nullptr) {
    pool->parallel_for(2, [&](std::size_t task) {
      if (task == 0)
        build_chains();
      else
        build_structure();
    });
  } else {
    build_chains();
    build_structure();
  }

  finish_tables(advance_entries, await_entries, pool);
}

// Shared by build() and IncrementalTraceIndex::seal().
void TraceIndex::finish_tables(
    std::vector<std::pair<SyncKey, std::size_t>>& advance_entries,
    std::vector<std::pair<AwaitKey, std::size_t>>& await_entries,
    support::TaskPool* pool) {
  // Flat tables: sort by key then trace index, then split into parallel
  // key/index arrays so per-key occurrence lists are contiguous ascending
  // slices of the index array.
  const auto by_key_then_index = [](const auto& a, const auto& b) {
    if (!(a.first == b.first)) return a.first < b.first;
    return a.second < b.second;
  };

  auto finish_advances = [&] {
    std::sort(advance_entries.begin(), advance_entries.end(),
              by_key_then_index);
    advance_keys_.reserve(advance_entries.size());
    advance_idx_.reserve(advance_entries.size());
    for (const auto& [key, idx] : advance_entries) {
      advance_keys_.push_back(key);
      advance_idx_.push_back(idx);
    }
    // Duplicates: within an equal-key run every entry after the first
    // repeats an earlier advance; runs are ascending in trace index, so
    // sorting the collected indices restores trace order.
    for (std::size_t k = 1; k < advance_entries.size(); ++k)
      if (advance_entries[k].first == advance_entries[k - 1].first)
        duplicate_advances_.push_back(advance_entries[k].second);
    std::sort(duplicate_advances_.begin(), duplicate_advances_.end());
  };

  auto finish_awaits = [&] {
    std::sort(await_entries.begin(), await_entries.end(), by_key_then_index);
    await_keys_.reserve(await_entries.size());
    await_idx_.reserve(await_entries.size());
    for (const auto& [key, idx] : await_entries) {
      await_keys_.push_back(key);
      await_idx_.push_back(idx);
    }
  };

  auto finish_barriers = [&] {
    // Barrier episodes in deterministic (object, payload) order.
    std::sort(barriers_.begin(), barriers_.end(),
              [](const BarrierEpisode& a, const BarrierEpisode& b) {
                return a.key < b.key;
              });
    barrier_slot_.clear();
    for (std::size_t s = 0; s < barriers_.size(); ++s)
      barrier_slot_[barriers_[s].key] = s;
  };

  if (pool != nullptr) {
    pool->parallel_for(3, [&](std::size_t task) {
      if (task == 0)
        finish_advances();
      else if (task == 1)
        finish_awaits();
      else
        finish_barriers();
    });
  } else {
    finish_advances();
    finish_awaits();
    finish_barriers();
  }
}

std::span<const std::uint32_t> TraceIndex::events_of(ProcId proc) const {
  if (proc >= proc_events_.size()) return {};
  return proc_events_[proc];
}

TraceIndex::IndexRange TraceIndex::await_begins(SyncKey key,
                                                ProcId proc) const {
  const AwaitKey ak{key, proc};
  const auto lo = std::lower_bound(await_keys_.begin(), await_keys_.end(), ak);
  const auto hi = std::upper_bound(lo, await_keys_.end(), ak);
  const std::size_t* base = await_idx_.data();
  return {base + (lo - await_keys_.begin()),
          base + (hi - await_keys_.begin())};
}

std::size_t TraceIndex::last_await_begin(SyncKey key, ProcId proc) const {
  const IndexRange r = await_begins(key, proc);
  return r.empty() ? npos : r.back();
}

std::size_t TraceIndex::last_await_begin_before(SyncKey key, ProcId proc,
                                                std::size_t i) const {
  const IndexRange r = await_begins(key, proc);
  const auto it = std::lower_bound(r.begin(), r.end(), i);
  return it == r.begin() ? npos : *(it - 1);
}

const std::vector<std::size_t>& TraceIndex::sem_releases(
    ObjectId object) const {
  const auto it = sem_releases_.find(object);
  return it == sem_releases_.end() ? empty_index_list() : it->second;
}

const TraceIndex::BarrierEpisode* TraceIndex::barrier_episode(
    ObjectId object, std::int64_t payload) const {
  const auto it = barrier_slot_.find(SyncKey{object, payload});
  return it == barrier_slot_.end() ? nullptr : &barriers_[it->second];
}

// Per-event transition of build()'s two scans (chains + structure), with the
// scan locals held as members so the state survives between chunks.  A lazy
// table grows with the trace once allocated; its first entry allocates it
// over the events appended so far (event i included).
void IncrementalTraceIndex::append(const Event& e) {
  TraceIndex& x = index_;
  const std::size_t i = x.prev_on_proc_.size();
  TraceIndex::require_indexable(i + 1);
  constexpr std::size_t npos = TraceIndex::npos;
  constexpr std::uint32_t kNone32 = TraceIndex::kNone32;
  for (auto* table : {&x.fork_dep_, &x.lock_dep_, &x.sem_ordinal_})
    if (!table->empty()) table->push_back(kNone32);

  // Per-processor chain.
  const std::size_t p = e.proc;
  const auto i32 = static_cast<std::uint32_t>(i);
  if (last_on_proc_.size() <= p) last_on_proc_.resize(p + 1u, kNone32);
  if (x.proc_events_.size() <= p) x.proc_events_.resize(p + 1u);
  x.prev_on_proc_.push_back(last_on_proc_[p]);
  last_on_proc_[p] = i32;
  x.proc_events_[p].push_back(i32);

  // Fork tracking: inside a parallel-loop episode, a processor's first
  // event depends on the loop's spawn, not on that processor's previous
  // event (it was idle through the master's sequential section).
  if (e.kind == EventKind::kLoopBegin) {
    open_loop_ = x.loops_.size();
    x.loops_.push_back({i, npos, e.object, e.proc});
    if (joined_loop_.size() <= e.proc) joined_loop_.resize(e.proc + 1u, 0);
    joined_loop_[e.proc] = open_loop_ + 1;  // master's chain covers it
  } else if (e.kind == EventKind::kLoopEnd) {
    if (open_loop_ != npos) x.loops_[open_loop_].end_index = i;
    open_loop_ = npos;
  } else if (open_loop_ != npos) {
    if (joined_loop_.size() <= e.proc) joined_loop_.resize(e.proc + 1u, 0);
    if (joined_loop_[e.proc] != open_loop_ + 1) {
      joined_loop_[e.proc] = open_loop_ + 1;
      TraceIndex::set_entry(x.fork_dep_, i + 1, i,
                            x.loops_[open_loop_].begin_index);
    }
  }

  const SyncKey key{e.object, e.payload};
  switch (e.kind) {
    case EventKind::kAdvance:
      advance_entries_.emplace_back(key, i);
      break;
    case EventKind::kAwaitBegin:
      await_entries_.emplace_back(TraceIndex::AwaitKey{key, e.proc}, i);
      break;
    case EventKind::kLockAcquire: {
      const auto lr = last_release_.find(e.object);
      if (lr != last_release_.end())
        TraceIndex::set_entry(x.lock_dep_, i + 1, i, lr->second);
      break;
    }
    case EventKind::kLockRelease:
      last_release_[e.object] = i;
      break;
    case EventKind::kSemAcquire:
      TraceIndex::set_entry(x.sem_ordinal_, i + 1, i,
                            sem_acquire_count_[e.object]++);
      break;
    case EventKind::kSemRelease:
      x.sem_releases_[e.object].push_back(i);
      break;
    case EventKind::kBarrierArrive:
    case EventKind::kBarrierDepart: {
      const auto [it, inserted] =
          x.barrier_slot_.insert({key, x.barriers_.size()});
      if (inserted) x.barriers_.push_back({key, {}, {}});
      TraceIndex::BarrierEpisode& ep = x.barriers_[it->second];
      (e.kind == EventKind::kBarrierArrive ? ep.arrivals : ep.departs)
          .push_back(i);
      break;
    }
    case EventKind::kIterBegin: {
      if (open_iter_.size() <= e.proc) open_iter_.resize(e.proc + 1u, npos);
      open_iter_[e.proc] = x.iters_.size();
      x.iters_.push_back({i, npos, e.payload, e.object, e.proc});
      break;
    }
    case EventKind::kIterEnd: {
      if (e.proc < open_iter_.size() && open_iter_[e.proc] != npos) {
        x.iters_[open_iter_[e.proc]].end_index = i;
        open_iter_[e.proc] = npos;
      }
      break;
    }
    default:
      break;
  }
}

TraceIndex IncrementalTraceIndex::seal(const Trace& trace) && {
  PERTURB_CHECK_MSG(trace.size() == size(),
                    "sealed trace does not match the appended events");
  index_.trace_ = &trace;
  index_.finish_tables(advance_entries_, await_entries_, nullptr);
  return std::move(index_);
}

}  // namespace perturb::trace
