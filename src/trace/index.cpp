#include "trace/index.hpp"

#include <algorithm>

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

// Sorts the collected advance/await entries by key then trace index and
// splits them into parallel key/index arrays, so per-key occurrence lists
// are contiguous ascending slices of the index array.
void TraceIndex::finish_tables(
    std::vector<std::pair<SyncKey, std::size_t>>& advance_entries,
    std::vector<std::pair<AwaitKey, std::size_t>>& await_entries) {
  const auto by_key_then_index = [](const auto& a, const auto& b) {
    if (!(a.first == b.first)) return a.first < b.first;
    return a.second < b.second;
  };

  std::sort(advance_entries.begin(), advance_entries.end(), by_key_then_index);
  advance_keys_.reserve(advance_entries.size());
  advance_idx_.reserve(advance_entries.size());
  for (const auto& [key, idx] : advance_entries) {
    advance_keys_.push_back(key);
    advance_idx_.push_back(idx);
  }
  // Duplicates: within an equal-key run every entry after the first repeats
  // an earlier advance; runs are ascending in trace index, so sorting the
  // collected indices restores trace order.
  for (std::size_t k = 1; k < advance_entries.size(); ++k)
    if (advance_entries[k].first == advance_entries[k - 1].first)
      duplicate_advances_.push_back(advance_entries[k].second);
  std::sort(duplicate_advances_.begin(), duplicate_advances_.end());

  std::sort(await_entries.begin(), await_entries.end(), by_key_then_index);
  await_keys_.reserve(await_entries.size());
  await_idx_.reserve(await_entries.size());
  for (const auto& [key, idx] : await_entries) {
    await_keys_.push_back(key);
    await_idx_.push_back(idx);
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

// Presized for `trace`: one counting pass sizes the per-processor lists, and
// the per-event tables (the lazy ones on their first entry) are allocated at
// the trace's length, so the batch index holds no growth slack.
IncrementalTraceIndex::IncrementalTraceIndex(const Trace& trace)
    : expected_(trace.size()) {
  TraceIndex::require_indexable(trace.size());
  std::vector<std::size_t> counts;
  for (const Event& e : trace) {
    if (counts.size() <= e.proc) counts.resize(e.proc + 1u, 0);
    ++counts[e.proc];
  }
  index_.prev_on_proc_.reserve(trace.size());
  index_.proc_events_.resize(counts.size());
  for (std::size_t p = 0; p < counts.size(); ++p)
    index_.proc_events_[p].reserve(counts[p]);
  last_on_proc_.assign(counts.size(), TraceIndex::kNone32);
  append(trace.events().data(), trace.size());
}

// The index's per-event transition; the scan state lives in members so it
// survives between chunks.  A lazy table is allocated on its first entry
// over max(events so far, expected length) entries; when streaming it grows
// at its later entries, and seal() extends it to the trace's length.
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
      advance_entries_.emplace_back(key, i);
      break;
    case EventKind::kAwaitBegin:
      await_entries_.emplace_back(TraceIndex::AwaitKey{key, e.proc}, i);
      break;
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
                      &index_.sem_ordinal_})
    if (!table->empty()) table->resize(size(), TraceIndex::kNone32);
  index_.finish_tables(advance_entries_, await_entries_);
  return std::move(index_);
}

}  // namespace perturb::trace
