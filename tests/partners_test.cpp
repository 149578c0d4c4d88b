// The index's awaitE partner answers and the analyses that read them.
//
// TraceIndex resolves each awaitE's advance once, at seal, and answers its
// awaitB and whole-trace advance/awaitB lookups in O(1) where the trace
// allows.  These tests hold every such answer to a linear-scan oracle on the
// golden traces and on hand-built degenerate ones, for a batch build and for
// an incremental build fed 97 events at a time, and hold validation,
// reconstruction, critical path, waiting and the what-if DAG to digests
// taken before the analyses read the partner answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analyses_digest.hpp"
#include "golden_cases.hpp"
#include "golden_digests.hpp"
#include "trace/index.hpp"

namespace perturb {
namespace {

using trace::Event;
using trace::EventKind;
using trace::SyncKey;
using trace::Trace;
using trace::TraceIndex;

constexpr std::size_t npos = TraceIndex::npos;

/// An incremental index over `t`, appended 97 events at a time.
TraceIndex seal_in_97s(const Trace& t) {
  trace::IncrementalTraceIndex builder;
  for (std::size_t off = 0; off < t.size(); off += 97)
    builder.append(t.events().data() + off,
                   std::min<std::size_t>(97, t.size() - off));
  return std::move(builder).seal(t);
}

/// Every advance and awaitB of `t` by key, in trace order: the oracle.
struct Scan {
  std::map<SyncKey, std::vector<std::size_t>> advances;
  std::map<std::pair<SyncKey, trace::ProcId>, std::vector<std::size_t>>
      await_begins;

  explicit Scan(const Trace& t) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      const Event& e = t[i];
      if (e.kind == EventKind::kAdvance)
        advances[{e.object, e.payload}].push_back(i);
      else if (e.kind == EventKind::kAwaitBegin)
        await_begins[{{e.object, e.payload}, e.proc}].push_back(i);
    }
  }

  static std::size_t last_before(const std::vector<std::size_t>* list,
                                 std::size_t i) {
    if (list == nullptr) return npos;
    const auto it = std::lower_bound(list->begin(), list->end(), i);
    return it == list->begin() ? npos : *(it - 1);
  }
  template <typename Map, typename Key>
  static const std::vector<std::size_t>* find(const Map& m, const Key& k) {
    const auto it = m.find(k);
    return it == m.end() ? nullptr : &it->second;
  }
};

void expect_partners_match_scan(const TraceIndex& idx, const Trace& t) {
  const Scan scan(t);
  std::size_t awaits = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const Event& e = t[i];
    if (e.kind != EventKind::kAwaitEnd) {
      EXPECT_EQ(idx.awaited_advance(i), npos) << "event " << i;
      continue;
    }
    ++awaits;
    const SyncKey key{e.object, e.payload};
    const auto* adv = Scan::find(scan.advances, key);
    const auto* ab = Scan::find(scan.await_begins, std::pair{key, e.proc});
    EXPECT_EQ(idx.awaited_advance(i), Scan::last_before(adv, i)) << i;
    EXPECT_EQ(idx.awaited_advance(i), idx.last_advance_before(key, i)) << i;
    EXPECT_EQ(idx.await_begin_before(i), Scan::last_before(ab, i)) << i;
    EXPECT_EQ(idx.first_advance_of(i), adv ? adv->front() : npos) << i;
    EXPECT_EQ(idx.last_advance_of(i), adv ? adv->back() : npos) << i;
  }
  EXPECT_GT(awaits, 0u);
}

// Every awaitE's partner answers equal the searches they replace, whether
// the trace pairs its events as the fast paths expect or not, and whether
// the index was built in one piece or in 97-event slices.
TEST(AwaitPartners, MatchLinearScanOnGoldenAndDegenerateTraces) {
  for (const golden::ApproxCase& c : golden::partner_cases()) {
    bool has_awaits = false;
    for (const Event& e : c.measured)
      has_awaits |= e.kind == EventKind::kAwaitEnd;
    if (!has_awaits) continue;  // lock, semaphore and barrier cases
    SCOPED_TRACE(c.label);
    const TraceIndex batch(c.measured);
    expect_partners_match_scan(batch, c.measured);
    expect_partners_match_scan(seal_in_97s(c.measured), c.measured);
  }
}

// A repeated advance key separates the two advance answers: an awaitE
// waited for the advance before it, while the whole-trace answers name the
// key's first and last advance, so neither may take the partner's shortcut.
TEST(AwaitPartners, DuplicateAdvancesSeparateAwaitedFromWholeTraceAnswers) {
  std::map<std::string, Trace> traces;
  for (auto& [label, t] : golden::degenerate_traces())
    traces.emplace(label, std::move(t));
  ASSERT_EQ(traces.size(), 6u);
  EXPECT_FALSE(TraceIndex(traces.at("duplicate-advances"))
                   .duplicate_advances()
                   .empty());
  // The first awaitE of "duplicate-advances" waited for the first of its
  // key's two advances; the whole-trace answer is the second.
  const Trace& dup = traces.at("duplicate-advances");
  const TraceIndex idx(dup);
  std::size_t first_await = 0;
  while (dup[first_await].kind != EventKind::kAwaitEnd) ++first_await;
  EXPECT_EQ(idx.awaited_advance(first_await),
            idx.first_advance_of(first_await));
  EXPECT_LT(idx.awaited_advance(first_await), first_await);
  EXPECT_GT(idx.last_advance_of(first_await), first_await);
}

// Validation, reconstruction, critical path, waiting and the what-if DAG
// answer on every partner case exactly what they answered when each of them
// still searched the sync tables for an awaitE's partners.
TEST(AwaitPartners, AnalysesMatchDigestsTakenBeforeThePartnerTable) {
  const std::vector<golden::ApproxCase> cases = golden::partner_cases();
  ASSERT_EQ(cases.size(), std::size(golden::kAnalysesDigests));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].label);
    ASSERT_EQ(cases[i].label, golden::kAnalysesDigests[i].label);
    EXPECT_EQ(golden::analyses_digest(cases[i]),
              golden::kAnalysesDigests[i].value)
        << std::hex << golden::analyses_digest(cases[i]);
  }
}

}  // namespace
}  // namespace perturb
