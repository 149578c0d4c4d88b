#include "analysis/sites.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>

#include "support/text.hpp"
#include "trace/trace.hpp"

namespace perturb::analysis {

namespace {

using trace::Event;
using trace::EventKind;

/// Classifies one event into the region class it names; false when the event
/// names no region.  The single source of the event → site mapping: the
/// registry builder and site_of_event must agree event for event.
bool classify(const Event& e, Site& out) noexcept {
  switch (e.kind) {
    case EventKind::kStmtEnter:
    case EventKind::kStmtExit:
      if (e.id == 0) return false;  // synthesized/unknown provenance
      out = {SiteKind::kStatement, e.id};
      return true;
    case EventKind::kLoopBegin:
    case EventKind::kLoopEnd:
    case EventKind::kIterBegin:
    case EventKind::kIterEnd:
      out = {SiteKind::kLoop, e.object};
      return true;
    case EventKind::kLockAcquire:
    case EventKind::kLockRelease:
      out = {SiteKind::kLock, e.object};
      return true;
    case EventKind::kAdvance:
    case EventKind::kAwaitBegin:
    case EventKind::kAwaitEnd:
      out = {SiteKind::kSync, e.object};
      return true;
    case EventKind::kSemAcquire:
    case EventKind::kSemRelease:
      out = {SiteKind::kSemaphore, e.object};
      return true;
    case EventKind::kBarrierArrive:
    case EventKind::kBarrierDepart:
      out = {SiteKind::kBarrier, e.object};
      return true;
    default:
      return false;
  }
}

bool site_less(const Site& a, const Site& b) noexcept {
  if (a.kind != b.kind) return a.kind < b.kind;
  return a.id < b.id;
}

}  // namespace

const char* site_kind_name(SiteKind kind) noexcept {
  switch (kind) {
    case SiteKind::kStatement:
      return "stmt";
    case SiteKind::kLoop:
      return "loop";
    case SiteKind::kLock:
      return "lock";
    case SiteKind::kSync:
      return "sync";
    case SiteKind::kSemaphore:
      return "sem";
    case SiteKind::kBarrier:
      return "barrier";
  }
  return "?";
}

SiteRegistry::SiteRegistry(const trace::TraceIndex& index) {
  // One pass: a trace names few regions, each many times over, so the
  // sorted table is searched (and grown) only when an event's region
  // differs from the last one seen for its kind.
  std::array<Site, kNumSiteKinds> last{};
  std::array<bool, kNumSiteKinds> seen{};
  Site site;
  for (const Event& e : index.trace()) {
    if (!classify(e, site)) continue;
    const auto k = static_cast<std::size_t>(site.kind);
    if (seen[k] && last[k] == site) continue;
    seen[k] = true;
    last[k] = site;
    const auto it =
        std::lower_bound(sites_.begin(), sites_.end(), site, site_less);
    if (it == sites_.end() || !(*it == site)) sites_.insert(it, site);
  }
  names_.reserve(sites_.size());
  for (const Site& s : sites_)
    names_.push_back(
        support::strf("%s#%u", site_kind_name(s.kind), s.id));
}

SiteId SiteRegistry::find(Site site) const noexcept {
  const auto it =
      std::lower_bound(sites_.begin(), sites_.end(), site, site_less);
  if (it == sites_.end() || !(*it == site)) return npos;
  return static_cast<SiteId>(it - sites_.begin());
}

std::optional<SiteId> SiteRegistry::parse(std::string_view name) const {
  const std::size_t hash = name.find('#');
  if (hash == std::string_view::npos || hash + 1 >= name.size())
    return std::nullopt;
  const std::string_view prefix = name.substr(0, hash);
  SiteKind kind;
  if (prefix == "stmt") {
    kind = SiteKind::kStatement;
  } else if (prefix == "loop") {
    kind = SiteKind::kLoop;
  } else if (prefix == "lock") {
    kind = SiteKind::kLock;
  } else if (prefix == "sync") {
    kind = SiteKind::kSync;
  } else if (prefix == "sem") {
    kind = SiteKind::kSemaphore;
  } else if (prefix == "barrier") {
    kind = SiteKind::kBarrier;
  } else {
    return std::nullopt;
  }
  // Accumulate in 64 bits and reject anything above UINT32_MAX: a wrapped
  // id ("stmt#4294967297" → stmt#1) would silently resolve to the wrong
  // site.  The length cap bounds the loop on absurd digit strings (10
  // digits already covers every representable id).
  const std::string_view digits = name.substr(hash + 1);
  if (digits.size() > 10) return std::nullopt;
  std::uint64_t id = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    id = id * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (id > 0xffffffffULL) return std::nullopt;
  return find({kind, static_cast<std::uint32_t>(id)});
}

SiteId SiteRegistry::site_of_event(
    const trace::Event& e) const noexcept {
  Site site;
  if (!classify(e, site)) return npos;
  return find(site);
}

}  // namespace perturb::analysis
