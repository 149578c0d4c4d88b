#include "analysis/parallelism.hpp"

#include <algorithm>
#include <map>

namespace perturb::analysis {

ParallelismProfile parallelism_profile(const trace::TraceIndex& index,
                                       const WaitClassifier& classifier) {
  const trace::Trace& t = index.trace();
  ParallelismProfile profile;
  if (t.empty()) return profile;

  // Active spans per processor: first event (trace order) to latest time.
  struct Span {
    Tick first = 0;
    Tick last = 0;
    bool seen = false;
  };
  std::vector<Span> spans(t.info().num_procs);
  for (std::size_t p = 0; p < spans.size() && p < index.num_procs(); ++p) {
    const auto evs = index.events_of(static_cast<trace::ProcId>(p));
    if (evs.empty()) continue;
    Span& s = spans[p];
    s.seen = true;
    s.first = t[evs.front()].time;
    s.last = s.first;
    for (const std::size_t i : evs) s.last = std::max(s.last, t[i].time);
  }

  // Delta sweep: +1 at active begin, -1 at active end; -1/+1 around waiting.
  std::map<Tick, int> deltas;
  for (const Span& s : spans) {
    if (!s.seen || s.last <= s.first) continue;
    deltas[s.first] += 1;
    deltas[s.last] -= 1;
  }
  const WaitingStats waits = waiting_analysis(index, classifier);
  for (const auto& w : waits.intervals) {
    if (w.proc >= spans.size() || !spans[w.proc].seen) continue;
    const Tick b = std::clamp(w.begin, spans[w.proc].first, spans[w.proc].last);
    const Tick e = std::clamp(w.end, spans[w.proc].first, spans[w.proc].last);
    if (e <= b) continue;
    deltas[b] -= 1;
    deltas[e] += 1;
  }
  if (deltas.empty()) return profile;

  profile.span_begin = deltas.begin()->first;
  profile.span_end = deltas.rbegin()->first;

  int level = 0;
  Tick prev = profile.span_begin;
  double integral = 0.0;
  double parallel_integral = 0.0;
  Tick parallel_span = 0;
  for (const auto& [time, delta] : deltas) {
    const Tick dt = time - prev;
    if (dt > 0) {
      integral += static_cast<double>(level) * static_cast<double>(dt);
      if (level >= 2) {
        parallel_integral += static_cast<double>(level) *
                             static_cast<double>(dt);
        parallel_span += dt;
      }
    }
    level += delta;
    profile.steps.emplace_back(time, static_cast<double>(level));
    prev = time;
  }
  const Tick span = profile.span_end - profile.span_begin;
  if (span > 0) profile.average = integral / static_cast<double>(span);
  if (parallel_span > 0)
    profile.average_parallel =
        parallel_integral / static_cast<double>(parallel_span);
  return profile;
}

ParallelismProfile parallelism_profile(const trace::Trace& t,
                                       const WaitClassifier& classifier) {
  if (t.empty()) return {};
  const trace::TraceIndex index(t);
  return parallelism_profile(index, classifier);
}

}  // namespace perturb::analysis
