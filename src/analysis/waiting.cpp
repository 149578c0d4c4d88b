#include "analysis/waiting.hpp"

#include <algorithm>

#include "support/text.hpp"

namespace perturb::analysis {

using trace::Event;
using trace::EventKind;
using trace::ProcId;
using trace::TraceIndex;

WaitingStats waiting_analysis(const TraceIndex& index,
                              const WaitClassifier& c) {
  const trace::Trace& t = index.trace();
  WaitingStats stats;
  stats.waiting_time.assign(t.info().num_procs, 0);
  stats.waiting_percent.assign(t.info().num_procs, 0.0);

  // A begin-marker (awaitB, barrier arrive) is consumed by the first end
  // event that matches it; subsequent ends without a fresh begin find
  // nothing.  The index supplies the candidates, one bit per event the
  // consumption, so awaits and barriers never share a state.
  std::vector<bool> consumed(t.size(), false);

  auto add = [&](ProcId proc, Tick begin, Tick end, EventKind cause,
                 trace::ObjectId object) {
    if (end <= begin) return;
    if (proc < stats.waiting_time.size())
      stats.waiting_time[proc] += end - begin;
    stats.intervals.push_back({proc, begin, end, cause, object});
  };

  // The candidate begin-marker if it is still unconsumed (marking it
  // consumed), else TraceIndex::npos.
  auto take_begin = [&](std::size_t candidate) -> std::size_t {
    if (candidate == TraceIndex::npos || consumed[candidate])
      return TraceIndex::npos;
    consumed[candidate] = true;
    return candidate;
  };

  // The program's run time (Trace::total_time) comes out of the same loop:
  // the first ProgramBegin to the last ProgramEnd, else the trace's span.
  Tick program_begin = 0, program_end = 0;
  bool have_begin = false, have_end = false;
  Tick lo = t.empty() ? 0 : t[0].time;
  Tick hi = lo;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const Event& e = t[i];
    lo = std::min(lo, e.time);
    hi = std::max(hi, e.time);
    switch (e.kind) {
      case EventKind::kProgramBegin:
        if (!have_begin) program_begin = e.time;
        have_begin = true;
        break;
      case EventKind::kProgramEnd:
        program_end = e.time;
        have_end = true;
        break;
      case EventKind::kAwaitEnd: {
        const std::size_t ab = take_begin(index.await_begin_before(i));
        if (ab != TraceIndex::npos) {
          const Tick begin = t[ab].time;
          if (e.time - begin > c.await_nowait + c.tolerance)
            add(e.proc, begin, e.time, EventKind::kAwaitEnd, e.object);
        }
        break;
      }
      case EventKind::kLockAcquire: {
        const std::size_t prev = index.prev_on_proc(i);
        if (prev != TraceIndex::npos) {
          const Tick begin = t[prev].time;
          if (e.time - begin > c.lock_acquire + c.tolerance)
            add(e.proc, begin, e.time, EventKind::kLockAcquire, e.object);
        }
        break;
      }
      case EventKind::kSemAcquire: {
        const std::size_t prev = index.prev_on_proc(i);
        if (prev != TraceIndex::npos) {
          const Tick begin = t[prev].time;
          if (e.time - begin > c.sem_acquire + c.tolerance)
            add(e.proc, begin, e.time, EventKind::kSemAcquire, e.object);
        }
        break;
      }
      case EventKind::kBarrierDepart: {
        // Latest same-processor arrival in this episode before the depart.
        const auto* ep = index.barrier_episode(e.object, e.payload);
        std::size_t arrive = TraceIndex::npos;
        if (ep != nullptr) {
          for (const std::size_t a : ep->arrivals) {
            if (a >= i) break;
            if (t[a].proc == e.proc) arrive = a;
          }
        }
        arrive = take_begin(arrive);
        if (arrive != TraceIndex::npos) {
          const Tick begin = t[arrive].time;
          if (e.time - begin > c.barrier_depart + c.tolerance)
            add(e.proc, begin, e.time, EventKind::kBarrierDepart, e.object);
        }
        break;
      }
      default:
        break;
    }
  }

  stats.total_time =
      have_begin && have_end ? program_end - program_begin : hi - lo;
  if (stats.total_time > 0) {
    for (std::size_t p = 0; p < stats.waiting_time.size(); ++p)
      stats.waiting_percent[p] = 100.0 *
                                 static_cast<double>(stats.waiting_time[p]) /
                                 static_cast<double>(stats.total_time);
  }
  return stats;
}

WaitingStats waiting_analysis(const trace::Trace& t,
                              const WaitClassifier& c) {
  const TraceIndex index(t);
  return waiting_analysis(index, c);
}

std::vector<Tick> waiting_by_site(const WaitingStats& stats,
                                  const SiteRegistry& sites) {
  std::vector<Tick> total(sites.size(), 0);
  for (const WaitInterval& w : stats.intervals) {
    Event probe;
    probe.object = w.object;
    probe.kind = w.cause;
    const SiteId s = sites.site_of_event(probe);
    if (s != SiteRegistry::npos) total[s] += w.end - w.begin;
  }
  return total;
}

std::string render_waiting_by_site(const WaitingStats& stats,
                                   const SiteRegistry& sites) {
  const std::vector<Tick> total = waiting_by_site(stats, sites);
  std::vector<SiteId> order;
  for (SiteId s = 0; s < total.size(); ++s)
    if (total[s] > 0) order.push_back(s);
  std::stable_sort(order.begin(), order.end(),
                   [&](SiteId a, SiteId b) { return total[a] > total[b]; });
  std::string out = "Waiting by site\n";
  if (order.empty()) return out + "  (none)\n";
  for (const SiteId s : order)
    out += support::strf("  %-12s %12lld\n", sites.name(s).c_str(),
                         static_cast<long long>(total[s]));
  return out;
}

std::string render_waiting_table(const WaitingStats& stats) {
  std::string head = "Processor ";
  std::string row = "Waiting   ";
  for (std::size_t p = 0; p < stats.waiting_percent.size(); ++p) {
    head += support::strf("%8zu", p);
    row += support::strf("%7.2f%%", stats.waiting_percent[p]);
  }
  return head + "\n" + row + "\n";
}

}  // namespace perturb::analysis
