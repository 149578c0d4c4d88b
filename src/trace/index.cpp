#include "trace/index.hpp"

#include <algorithm>
#include <tuple>

#include "support/check.hpp"
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

TraceIndex::TraceIndex(const Trace& trace)
    : TraceIndex(IncrementalTraceIndex(trace).seal(trace)) {}

TraceIndex::TraceIndex(const Trace& trace, support::TaskPool&)
    : TraceIndex(trace) {}

namespace {

/// Sorts the parallel (key, trace index) columns by key then index.  They
/// were appended in trace order, so the indices ascend and an insertion
/// sort, which keeps equal keys in place, orders them.  The traces the
/// simulator and the runtime write are in key order but for a few swapped
/// neighbours, which an insertion sort finishes in linear time; past a
/// linear budget of moves it hands the columns to one std::sort.
template <typename Key>
void sort_columns(std::vector<Key>& keys, std::vector<std::uint32_t>& idx) {
  const std::size_t n = keys.size();
  std::size_t moves = 0;
  for (std::size_t k = 1; k < n && moves <= n; ++k) {
    if (!(keys[k] < keys[k - 1])) continue;
    const Key key = keys[k];
    const std::uint32_t at = idx[k];
    std::size_t j = k;
    for (; j > 0 && key < keys[j - 1]; --j) {
      keys[j] = keys[j - 1];
      idx[j] = idx[j - 1];
    }
    keys[j] = key;
    idx[j] = at;
    moves += k - j;
  }
  if (moves <= n) return;
  std::vector<std::pair<Key, std::uint32_t>> rows(n);
  for (std::size_t k = 0; k < n; ++k) rows[k] = {keys[k], idx[k]};
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (!(a.first == b.first)) return a.first < b.first;
    return a.second < b.second;
  });
  for (std::size_t k = 0; k < n; ++k) std::tie(keys[k], idx[k]) = rows[k];
}

/// The first position of `keys` whose entry fails `in_prefix` (the entries
/// that pass it form a prefix), galloping out from `hint`: O(log d) for an
/// answer d entries away, so a walk whose keys mostly ascend costs O(1) a
/// step.
template <typename Pred>
std::size_t gallop_partition_point(const std::vector<SyncKey>& keys,
                                   std::size_t hint, Pred in_prefix) {
  const std::size_t n = keys.size();
  std::size_t lo = 0;  // the answer lies in [lo, hi]
  std::size_t hi = n;
  if (hint < n && in_prefix(keys[hint])) {
    lo = hint + 1;
    for (std::size_t step = 1; lo + step - 1 < n; step *= 2) {
      const std::size_t probe = lo + step - 1;
      if (!in_prefix(keys[probe])) {
        hi = probe;
        break;
      }
      lo = probe + 1;
    }
  } else {
    hi = std::min(hint, n);
    for (std::size_t step = 1; step <= hi; step *= 2) {
      const std::size_t probe = hi - step;
      if (in_prefix(keys[probe])) {
        lo = probe + 1;
        break;
      }
      hi = probe;
    }
  }
  const auto b = keys.begin();
  return static_cast<std::size_t>(
      std::partition_point(b + static_cast<std::ptrdiff_t>(lo),
                           b + static_cast<std::ptrdiff_t>(hi), in_prefix) -
      b);
}

}  // namespace

// Puts the advance/await columns in key-then-index order (a sort only when
// they arrived out of it), so per-key occurrence lists are contiguous
// ascending slices of the index columns.
void TraceIndex::finish_tables(bool advances_sorted, bool awaits_sorted,
                               const std::vector<std::uint32_t>& await_ends) {
  if (!advances_sorted) sort_columns(advance_keys_, advance_idx_);
  // Duplicates: within an equal-key run every entry after the first repeats
  // an earlier advance; runs are ascending in trace index, so sorting the
  // collected indices restores trace order.
  for (std::size_t k = 1; k < advance_keys_.size(); ++k)
    if (advance_keys_[k] == advance_keys_[k - 1])
      duplicate_advances_.push_back(advance_idx_[k]);
  std::sort(duplicate_advances_.begin(), duplicate_advances_.end());
  unique_advances_ = duplicate_advances_.empty();

  if (!awaits_sorted) sort_columns(await_keys_, await_idx_);

  // The awaitEs the builder could not resolve as they arrived.
  for (const std::uint32_t i : await_ends) {
    const std::size_t adv = last_advance_before(key_of(i), i);
    if (adv != npos) set_entry(awaited_advance_, size(), i, adv);
  }

  // Barrier episodes in deterministic (object, payload) order.
  std::sort(barriers_.begin(), barriers_.end(),
            [](const BarrierEpisode& a, const BarrierEpisode& b) {
              return a.key < b.key;
            });
  barrier_slot_.clear();
  for (std::size_t s = 0; s < barriers_.size(); ++s)
    barrier_slot_[barriers_[s].key] = s;
}

std::span<const std::uint32_t> TraceIndex::events_of(ProcId proc) const {
  if (proc >= proc_events_.size()) return {};
  return proc_events_[proc];
}

TraceIndex::IndexRange TraceIndex::await_begins(SyncKey key,
                                                ProcId proc) const {
  const AwaitKey ak{key.object, proc, key.index};
  const auto lo = std::lower_bound(await_keys_.begin(), await_keys_.end(), ak);
  const auto hi = std::upper_bound(lo, await_keys_.end(), ak);
  const std::uint32_t* base = await_idx_.data();
  return {base + (lo - await_keys_.begin()),
          base + (hi - await_keys_.begin())};
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

// Presized for `trace`: one counting pass sizes the per-processor lists, the
// sync-table columns and the iteration spans, and the per-event tables (the
// lazy ones on their first entry) are allocated at the trace's length, so
// the batch index holds no growth slack.
IncrementalTraceIndex::IncrementalTraceIndex(const Trace& trace)
    : expected_(trace.size()) {
  TraceIndex::require_indexable(trace.size());
  std::vector<std::size_t> counts;
  std::size_t advances = 0;
  std::size_t await_begins = 0;
  std::size_t iterations = 0;
  for (const Event& e : trace) {
    if (counts.size() <= e.proc) counts.resize(e.proc + 1u, 0);
    ++counts[e.proc];
    advances += e.kind == EventKind::kAdvance ? 1 : 0;
    await_begins += e.kind == EventKind::kAwaitBegin ? 1 : 0;
    iterations += e.kind == EventKind::kIterBegin ? 1 : 0;
  }
  index_.prev_on_proc_.reserve(trace.size());
  index_.proc_events_.resize(counts.size());
  for (std::size_t p = 0; p < counts.size(); ++p)
    index_.proc_events_[p].reserve(counts[p]);
  index_.advance_keys_.reserve(advances);
  index_.advance_idx_.reserve(advances);
  index_.await_keys_.reserve(await_begins);
  index_.await_idx_.reserve(await_begins);
  index_.iters_.reserve(iterations);
  last_on_proc_.assign(counts.size(), TraceIndex::kNone32);
  append(trace.events().data(), trace.size());
}

// The index's per-event transition; the scan state lives in members so it
// survives between chunks.  A lazy table is allocated on its first entry
// over max(events so far, expected length) entries; when streaming it grows
// at its later entries, and seal() extends it to the trace's length.
//
// An awaitE is resolved to its advance as it arrives: every advance before
// it is already in the advance columns, and while those are in key order
// its key's run ends at the first greater key, galloped for from the
// previous awaitE's answer.  Once an advance arrives out of key order the
// remaining awaitEs wait for seal(), which sorts the columns first.
void IncrementalTraceIndex::append(const Event& e) {
  TraceIndex& x = index_;
  const std::size_t i = x.prev_on_proc_.size();
  TraceIndex::require_indexable(i + 1);
  constexpr std::size_t npos = TraceIndex::npos;
  constexpr std::uint32_t kNone32 = TraceIndex::kNone32;
  const std::size_t table_size = std::max(i + 1, expected_);

  // Per-processor chain.
  const std::size_t p = e.proc;
  const auto i32 = static_cast<std::uint32_t>(i);
  if (last_on_proc_.size() <= p) last_on_proc_.resize(p + 1u, kNone32);
  if (x.proc_events_.size() <= p) x.proc_events_.resize(p + 1u);
  x.prev_on_proc_.push_back(last_on_proc_[p]);
  last_on_proc_[p] = i32;
  x.proc_events_[p].push_back(i32);

  const std::size_t closing = forks_.open_loop();
  const std::size_t fork = forks_.step(e);
  if (e.kind == EventKind::kLoopBegin)
    x.loops_.push_back({i, npos, e.object, e.proc});
  else if (e.kind == EventKind::kLoopEnd && closing != npos)
    x.loops_[closing].end_index = i;
  else if (fork != npos)
    TraceIndex::set_entry(x.fork_dep_, table_size, i,
                          x.loops_[fork].begin_index);

  const SyncKey key{e.object, e.payload};
  switch (e.kind) {
    case EventKind::kAdvance:
      if (!x.advance_keys_.empty() && key < x.advance_keys_.back())
        advances_sorted_ = false;
      x.advance_keys_.push_back(key);
      x.advance_idx_.push_back(i32);
      break;
    case EventKind::kAwaitBegin: {
      const TraceIndex::AwaitKey ak{e.object, e.proc, e.payload};
      if (!x.await_keys_.empty() && ak < x.await_keys_.back())
        awaits_sorted_ = false;
      x.await_keys_.push_back(ak);
      x.await_idx_.push_back(i32);
      break;
    }
    case EventKind::kAwaitEnd: {
      if (!advances_sorted_) {
        unresolved_await_ends_.push_back(i32);
        break;
      }
      const auto& keys = x.advance_keys_;
      advance_hint_ = gallop_partition_point(
          keys, advance_hint_, [&](const SyncKey& k) { return !(key < k); });
      if (advance_hint_ > 0 && keys[advance_hint_ - 1] == key)
        TraceIndex::set_entry(x.awaited_advance_, table_size, i,
                              x.advance_idx_[advance_hint_ - 1]);
      break;
    }
    case EventKind::kLockAcquire: {
      const auto lr = last_release_.find(e.object);
      if (lr != last_release_.end())
        TraceIndex::set_entry(x.lock_dep_, table_size, i, lr->second);
      break;
    }
    case EventKind::kLockRelease:
      last_release_[e.object] = i;
      break;
    case EventKind::kSemAcquire:
      TraceIndex::set_entry(x.sem_ordinal_, table_size, i,
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
  for (auto* table : {&index_.fork_dep_, &index_.lock_dep_,
                      &index_.sem_ordinal_, &index_.awaited_advance_})
    if (!table->empty()) table->resize(size(), TraceIndex::kNone32);
  index_.finish_tables(advances_sorted_, awaits_sorted_,
                       unresolved_await_ends_);
  return std::move(index_);
}

}  // namespace perturb::trace
