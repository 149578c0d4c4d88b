#include "analysis/critical_path.hpp"

#include <algorithm>
#include <limits>

#include "support/text.hpp"
#include "trace/event.hpp"

namespace perturb::analysis {

namespace {

using trace::EventKind;
using trace::Trace;
using trace::TraceIndex;

constexpr std::size_t kNone = TraceIndex::npos;

}  // namespace

CriticalPathStats critical_path(const TraceIndex& idx) {
  const Trace& t = idx.trace();
  CriticalPathStats stats;
  stats.time_by_proc.assign(t.info().num_procs, 0);
  if (t.empty()) return stats;

  const std::size_t n = t.size();

  // Start from the latest event and walk critical predecessors backwards.
  // Only events on the path need their dependencies, so they are resolved
  // on demand from the index rather than via a full indexing pass.
  std::size_t cur = 0;
  for (std::size_t i = 1; i < n; ++i)
    if (t[i].time >= t[cur].time) cur = i;

  // The walk runs end to start: push, then reverse in place.
  while (cur != kNone) {
    stats.path.push_back(cur);
    const std::size_t same = idx.prev_on_proc(cur);
    // The cross dependency that completed last; ties keep the earlier one
    // in trace order.
    std::size_t cross = kNone;
    idx.for_each_cross_dep(cur, [&](std::size_t d) {
      if (cross == kNone || t[cross].time < t[d].time) cross = d;
    });
    std::size_t pred = same;
    // The critical predecessor is the dependency that completed last; ties
    // resolve toward the same-processor chain.
    if (cross != kNone && (same == kNone || t[cross].time > t[same].time))
      pred = cross;
    if (pred != kNone) {
      const Tick link = t[cur].time - t[pred].time;
      stats.time_by_kind[static_cast<std::size_t>(t[cur].kind)] += link;
      if (t[cur].proc < stats.time_by_proc.size())
        stats.time_by_proc[t[cur].proc] += link;
      if (t[pred].proc != t[cur].proc) ++stats.cross_processor_links;
    }
    cur = pred;
  }
  std::reverse(stats.path.begin(), stats.path.end());
  stats.length = t[stats.path.back()].time - t[stats.path.front()].time;
  return stats;
}

CriticalPathStats critical_path(const Trace& t) {
  if (t.empty()) {
    CriticalPathStats stats;
    stats.time_by_proc.assign(t.info().num_procs, 0);
    return stats;
  }
  const TraceIndex index(t);
  return critical_path(index);
}

std::string render_critical_path(const CriticalPathStats& stats) {
  std::string out = support::strf(
      "critical path: %zu events, %lld ticks, %zu cross-processor links\n",
      stats.path.size(), static_cast<long long>(stats.length),
      stats.cross_processor_links);
  for (std::size_t k = 0; k < trace::kNumEventKinds; ++k) {
    if (stats.time_by_kind[k] == 0) continue;
    const double pct =
        stats.length > 0 ? 100.0 * static_cast<double>(stats.time_by_kind[k]) /
                               static_cast<double>(stats.length)
                         : 0.0;
    out += support::strf("  %-12s %10lld  (%5.1f%%)\n",
                         trace::event_kind_name(static_cast<EventKind>(k)),
                         static_cast<long long>(stats.time_by_kind[k]), pct);
  }
  return out;
}

std::vector<Tick> path_time_by_site(const CriticalPathStats& stats,
                                    const Trace& t,
                                    const SiteRegistry& sites) {
  std::vector<Tick> total(sites.size(), 0);
  for (std::size_t k = 1; k < stats.path.size(); ++k) {
    const std::size_t cur = stats.path[k];
    const std::size_t pred = stats.path[k - 1];
    const SiteId s = sites.site_of_event(t[cur]);
    if (s != SiteRegistry::npos) total[s] += t[cur].time - t[pred].time;
  }
  return total;
}

std::string render_critical_path_sites(const CriticalPathStats& stats,
                                       const Trace& t,
                                       const SiteRegistry& sites) {
  const std::vector<Tick> total = path_time_by_site(stats, t, sites);
  std::vector<SiteId> order;
  for (SiteId s = 0; s < total.size(); ++s)
    if (total[s] > 0) order.push_back(s);
  std::stable_sort(order.begin(), order.end(),
                   [&](SiteId a, SiteId b) { return total[a] > total[b]; });
  std::string out = "Critical path by site\n";
  if (order.empty()) return out + "  (none)\n";
  for (const SiteId s : order) {
    const double pct =
        stats.length > 0 ? 100.0 * static_cast<double>(total[s]) /
                               static_cast<double>(stats.length)
                         : 0.0;
    out += support::strf("  %-12s %10lld  (%5.1f%%)\n", sites.name(s).c_str(),
                         static_cast<long long>(total[s]), pct);
  }
  return out;
}

}  // namespace perturb::analysis
