// Equivalence oracle for the what-if engine: dense re-simulation.
//
// Rewrites every event's local cost (scaling the plan's site members) and
// re-evaluates the full trace event by event — no anchor compression, no
// delta propagation, no memoization, no lane batching.  Slow by design;
// WhatIfEngine::run and run_many must be bit-identical to it on every trace.
//
// The oracle derives each event's cross-processor predecessors and each
// site's member events itself, from TraceIndex's public answers, so it
// borrows neither the dependency rules nor the membership pass of the
// engine it checks.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "trace/index.hpp"
#include "whatif/whatif.hpp"

namespace perturb::whatif {

/// Event i's cross-processor predecessors under the critical-path rules:
///   awaitE        the latest advance of its key before it;
///   lock acquire  the release it was handed the lock by;
///   barrier depart every arrival of its episode before it, in trace order;
/// and, for an event with none of these, the LoopBegin that spawned it as a
/// processor's first event in a loop episode.
inline std::vector<std::size_t> oracle_cross_preds(
    const trace::TraceIndex& idx, std::size_t i) {
  constexpr std::size_t npos = trace::TraceIndex::npos;
  const trace::Event& e = idx.trace()[i];
  std::vector<std::size_t> preds;
  if (e.kind == trace::EventKind::kAwaitEnd) {
    const std::size_t adv =
        idx.last_advance_before(trace::SyncKey{e.object, e.payload}, i);
    if (adv != npos) preds.push_back(adv);
  } else if (e.kind == trace::EventKind::kLockAcquire) {
    if (idx.lock_dep(i) != npos) preds.push_back(idx.lock_dep(i));
  } else if (e.kind == trace::EventKind::kBarrierDepart) {
    if (const auto* ep = idx.barrier_episode(e.object, e.payload))
      for (const std::size_t a : ep->arrivals)
        if (a < i) preds.push_back(a);
  }
  if (preds.empty() && idx.fork_dep(i) != npos)
    preds.push_back(idx.fork_dep(i));
  return preds;
}

/// Member events of one site, ascending trace indices, defined per site:
///   stmt#id    every kStmtExit carrying that statement id (the exit owns
///              the statement's duration in the cost model),
///   loop#obj   every event strictly inside a loop episode (begin, end] of
///              that loop object (all processors; a truncated episode runs
///              to the end of the trace),
///   lock#obj   every event strictly after a kLockAcquire of that object
///              through the matching kLockRelease inclusive, per processor
///              (the acquire itself is excluded so its waiting time is not
///              scaled away),
///   sync#obj   every kAdvance / kAwaitBegin / kAwaitEnd on that object
///              (scales synchronization processing cost, not waiting),
///   sem#obj    every kSemAcquire / kSemRelease on that object,
///   barrier#obj every kBarrierArrive / kBarrierDepart on that object.
inline std::vector<std::size_t> site_member_events(
    const trace::TraceIndex& idx, const SiteRegistry& sites, SiteId site) {
  using trace::EventKind;
  constexpr std::size_t kNone = trace::TraceIndex::npos;
  const trace::Trace& t = idx.trace();
  const analysis::Site s = sites.site(site);
  std::vector<std::size_t> members;
  switch (s.kind) {
    case analysis::SiteKind::kStatement:
      for (std::size_t i = 0; i < t.size(); ++i)
        if (t[i].kind == EventKind::kStmtExit && t[i].id == s.id)
          members.push_back(i);
      break;
    case analysis::SiteKind::kLoop:
      for (const auto& span : idx.loops()) {
        if (span.object != s.id || span.begin_index == kNone) continue;
        const std::size_t last =
            span.end_index == kNone ? t.size() - 1 : span.end_index;
        for (std::size_t i = span.begin_index + 1; i <= last; ++i)
          members.push_back(i);
      }
      std::sort(members.begin(), members.end());
      members.erase(std::unique(members.begin(), members.end()),
                    members.end());
      break;
    case analysis::SiteKind::kLock:
      for (std::size_t p = 0; p < idx.num_procs(); ++p) {
        bool holding = false;
        for (const std::size_t i :
             idx.events_of(static_cast<trace::ProcId>(p))) {
          if (holding) members.push_back(i);
          if (t[i].object == s.id) {
            if (t[i].kind == EventKind::kLockAcquire) holding = true;
            if (t[i].kind == EventKind::kLockRelease) holding = false;
          }
        }
      }
      std::sort(members.begin(), members.end());
      break;
    case analysis::SiteKind::kSync:
      for (std::size_t i = 0; i < t.size(); ++i) {
        const EventKind k = t[i].kind;
        if ((k == EventKind::kAdvance || k == EventKind::kAwaitBegin ||
             k == EventKind::kAwaitEnd) &&
            t[i].object == s.id)
          members.push_back(i);
      }
      break;
    case analysis::SiteKind::kSemaphore:
      for (std::size_t i = 0; i < t.size(); ++i) {
        const EventKind k = t[i].kind;
        if ((k == EventKind::kSemAcquire || k == EventKind::kSemRelease) &&
            t[i].object == s.id)
          members.push_back(i);
      }
      break;
    case analysis::SiteKind::kBarrier:
      for (std::size_t i = 0; i < t.size(); ++i) {
        const EventKind k = t[i].kind;
        if ((k == EventKind::kBarrierArrive ||
             k == EventKind::kBarrierDepart) &&
            t[i].object == s.id)
          members.push_back(i);
      }
      break;
  }
  return members;
}

/// The what-if result of `plan` by dense re-simulation of the whole trace.
inline WhatIfResult whatif_oracle(const trace::TraceIndex& idx,
                                  const SiteRegistry& sites,
                                  const WhatIfPlan& plan) {
  constexpr std::size_t npos = trace::TraceIndex::npos;
  const trace::Trace& t = idx.trace();
  const std::size_t n = t.size();
  std::vector<char> member(n, 0);
  for (const std::size_t i : site_member_events(idx, sites, plan.site))
    member[i] = 1;
  std::vector<std::vector<std::size_t>> cross(n);
  for (std::size_t i = 0; i < n; ++i) cross[i] = oracle_cross_preds(idx, i);

  // Latest of a same-processor predecessor and cross predecessors under a
  // time view; `any` reports whether there was one at all.
  const auto latest = [&](std::size_t i, const auto& time_of, bool& any) {
    Tick base = 0;
    any = false;
    const std::size_t prev = idx.prev_on_proc(i);
    if (prev != npos) {
      base = time_of(prev);
      any = true;
    }
    for (const std::size_t c : cross[i]) {
      if (!any || time_of(c) > base) base = time_of(c);
      any = true;
    }
    return base;
  };

  // Full per-event re-evaluation with rewritten costs: the local cost comes
  // from the recovered times, the new time from the virtual ones.
  std::vector<Tick> tp(n, 0);
  WhatIfResult out;
  out.waiting.assign(t.info().num_procs, 0);
  const auto recovered = [&](std::size_t j) { return t[j].time; };
  const auto virtual_time = [&](std::size_t j) { return tp[j]; };
  for (std::size_t i = 0; i < n; ++i) {
    bool any = false;
    const Tick base0 = latest(i, recovered, any);
    Tick d = t[i].time - (any ? base0 : 0);
    if (member[i]) d -= (d * plan.pct) / 100;
    const Tick base = latest(i, virtual_time, any);
    tp[i] = (any ? base : 0) + d;
    const std::size_t prev = idx.prev_on_proc(i);
    if (prev != npos && t[i].proc < out.waiting.size())
      out.waiting[t[i].proc] += base - tp[prev];
  }

  // Makespan over per-processor chain endpoints.
  Tick lo = 0, hi = 0;
  bool seen = false;
  std::size_t end = npos;
  for (std::size_t p = 0; p < idx.num_procs(); ++p) {
    const auto& evs = idx.events_of(static_cast<trace::ProcId>(p));
    if (evs.empty()) continue;
    const Tick f = tp[evs.front()];
    const Tick l = tp[evs.back()];
    if (!seen || f < lo) lo = f;
    if (!seen || l > hi) hi = l;
    seen = true;
    if (end == npos || l > tp[end] || (l == tp[end] && evs.back() > end))
      end = evs.back();
  }
  out.makespan = seen ? hi - lo : 0;

  // Per-event critical-path walk: the binding predecessor is the latest;
  // ties prefer the same-processor chain, then the earliest cross
  // dependency.
  if (end != npos) {
    std::size_t cur = end;
    while (true) {
      const std::size_t prev = idx.prev_on_proc(cur);
      std::size_t best = npos;
      for (const std::size_t c : cross[cur])
        if (best == npos || tp[c] > tp[best]) best = c;
      if (prev != npos && (best == npos || tp[prev] >= tp[best]))
        cur = prev;
      else if (best != npos)
        cur = best;
      else
        break;
    }
    out.critical_path = tp[end] - tp[cur];
  }
  return out;
}

}  // namespace perturb::whatif
