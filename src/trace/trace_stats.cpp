#include "trace/trace_stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>
#include <vector>

#include "support/stats.hpp"
#include "support/text.hpp"

namespace perturb::trace {

using support::strf;

TraceStats compute_stats(const Trace& trace) {
  TraceStats s;
  s.total_events = trace.size();
  s.per_proc_events.assign(trace.info().num_procs, 0);
  for (const auto& e : trace) {
    s.kind_counts[static_cast<std::size_t>(e.kind)]++;
    if (e.proc < s.per_proc_events.size()) s.per_proc_events[e.proc]++;
  }
  s.span = trace.span();
  s.total_time = trace.total_time();
  return s;
}

void StatsBuilder::add(const Event& e) {
  if (stats_.total_events == 0) {
    min_ = e.time;
    max_ = e.time;
  } else {
    min_ = std::min(min_, e.time);
    max_ = std::max(max_, e.time);
  }
  ++stats_.total_events;
  ++stats_.kind_counts[static_cast<std::size_t>(e.kind)];
  if (e.proc < stats_.per_proc_events.size()) ++stats_.per_proc_events[e.proc];
  if (e.kind == EventKind::kProgramBegin && !have_begin_) {
    begin_ = e.time;
    have_begin_ = true;
  } else if (e.kind == EventKind::kProgramEnd) {
    end_ = e.time;
    have_end_ = true;
  }
}

TraceStats StatsBuilder::build() const {
  TraceStats s = stats_;
  s.span = stats_.total_events == 0 ? 0 : max_ - min_;
  s.total_time = have_begin_ && have_end_ ? end_ - begin_ : s.span;
  return s;
}

std::string render_stats(const TraceStats& stats) {
  std::string out = strf("events: %zu  span: %lld  total: %lld\n",
                         stats.total_events, static_cast<long long>(stats.span),
                         static_cast<long long>(stats.total_time));
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    if (stats.kind_counts[k] == 0) continue;
    out += strf("  %-12s %zu\n", event_kind_name(static_cast<EventKind>(k)),
                stats.kind_counts[k]);
  }
  for (std::size_t p = 0; p < stats.per_proc_events.size(); ++p)
    out += strf("  proc %-2zu      %zu\n", p, stats.per_proc_events[p]);
  return out;
}

namespace {

/// Event-match identity (everything but time and ordinal), packed for
/// hashing.  proc_kind doubles as the occupancy flag of the open-addressing
/// table below: real values fit 24 bits, so the all-ones pattern is free.
struct MatchKey {
  std::uint64_t id_object = 0;  ///< id << 32 | object
  std::uint64_t proc_kind = 0;  ///< proc << 8 | kind
  std::int64_t payload = 0;

  friend bool operator==(const MatchKey&, const MatchKey&) = default;
};

constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};

// The packing above is collision-free only while the fields fit their
// shifts: id and object must each fit 32 bits, proc must fit 24 bits above
// the 8-bit kind so `proc << 8 | kind` can never alias a different (proc,
// kind) pair — nor reach the kEmptySlot occupancy sentinel.  If any of
// these types ever widens, MatchKey must widen with it.
static_assert(sizeof(EventId) <= 4, "MatchKey packs id into 32 bits");
static_assert(sizeof(ObjectId) <= 4, "MatchKey packs object into 32 bits");
static_assert(sizeof(ProcId) <= 2, "MatchKey packs proc above an 8-bit kind");
static_assert(sizeof(std::underlying_type_t<EventKind>) == 1,
              "MatchKey packs kind into 8 bits");
static_assert(((std::uint64_t{std::numeric_limits<ProcId>::max()} << 8) |
               0xff) != kEmptySlot,
              "a real proc_kind must never equal the empty-slot sentinel");

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t hash_key(const MatchKey& k) noexcept {
  const auto payload = mix64(static_cast<std::uint64_t>(k.payload));
  return mix64(k.id_object ^ mix64(k.proc_kind ^ payload));
}

MatchKey key_of(const Event& e) noexcept {
  MatchKey k;
  k.id_object = (static_cast<std::uint64_t>(e.id) << 32) | e.object;
  k.proc_kind = (static_cast<std::uint64_t>(e.proc) << 8) |
                static_cast<std::uint64_t>(e.kind);
  k.payload = e.payload;
  return k;
}

/// Open-addressing map from MatchKey to b's occurrence list: statement
/// payloads carry the iteration index, so most keys occur exactly once and
/// node-based maps pay an allocation per *event*.  This table is two flat
/// arrays: linear-probed slots and a shared times buffer sliced per key.
class MatchTable {
 public:
  explicit MatchTable(std::size_t max_keys) {
    std::size_t cap = 16;
    while (cap < max_keys * 2) cap <<= 1;  // load factor <= 0.5
    mask_ = cap - 1;
    slots_.resize(cap);
  }

  struct Slot {
    MatchKey key{0, kEmptySlot, 0};
    std::uint32_t count = 0;   ///< occurrences of this key in b
    std::uint32_t cursor = 0;  ///< fill cursor, then a's match cursor
    std::uint64_t base = 0;    ///< first index in the shared times buffer
  };

  Slot& find_or_insert(const MatchKey& k) {
    std::size_t i = hash_key(k) & mask_;
    for (;; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.key.proc_kind == kEmptySlot) {
        s.key = k;
        return s;
      }
      if (s.key == k) return s;
    }
  }

  Slot* find(const MatchKey& k) {
    std::size_t i = hash_key(k) & mask_;
    for (;; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.key.proc_kind == kEmptySlot) return nullptr;
      if (s.key == k) return &s;
    }
  }

  std::vector<Slot>& slots() noexcept { return slots_; }

 private:
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
};

}  // namespace

TraceComparison compare(const Trace& a, const Trace& b) {
  // Count b's occurrences per key, slice one shared buffer by those counts,
  // then fill it in b order so slices are ordinal-ordered.
  MatchTable table(b.size());
  for (const auto& e : b) ++table.find_or_insert(key_of(e)).count;
  std::uint64_t base = 0;
  for (auto& s : table.slots()) {
    if (s.key.proc_kind == kEmptySlot) continue;
    s.base = base;
    base += s.count;
  }
  std::vector<Tick> b_times(b.size());
  for (const auto& e : b) {
    auto& s = *table.find(key_of(e));
    b_times[s.base + s.cursor++] = e.time;
  }
  for (auto& s : table.slots()) s.cursor = 0;

  // Walk a in trace order: the nth occurrence of a key matches the nth
  // occurrence in b.  Errors accumulate in `a` order, so the floating-point
  // results are a pure function of the two traces.
  TraceComparison c;
  double abs_sum = 0.0;
  double sq_sum = 0.0;
  std::vector<double> abs_errors;
  for (const auto& e : a) {
    auto* s = table.find(key_of(e));
    if (s == nullptr || s->cursor == s->count) {
      ++c.unmatched_a;
      continue;
    }
    ++c.matched_events;
    const auto err =
        static_cast<double>(e.time - b_times[s->base + s->cursor++]);
    abs_sum += std::abs(err);
    sq_sum += err * err;
    abs_errors.push_back(std::abs(err));
    c.max_abs_time_error =
        std::max(c.max_abs_time_error,
                 static_cast<Tick>(std::llabs(static_cast<long long>(err))));
  }
  c.unmatched_b = b.size() - c.matched_events;
  if (c.matched_events > 0) {
    c.mean_abs_time_error = abs_sum / static_cast<double>(c.matched_events);
    c.rms_time_error = std::sqrt(sq_sum / static_cast<double>(c.matched_events));
    c.p50_abs_time_error = support::percentile_inplace(abs_errors, 0.5);
    c.p95_abs_time_error = support::percentile_inplace(abs_errors, 0.95);
  }
  const auto bt = static_cast<double>(b.total_time());
  c.total_time_ratio = bt != 0.0 ? static_cast<double>(a.total_time()) / bt : 0.0;
  return c;
}

}  // namespace perturb::trace
