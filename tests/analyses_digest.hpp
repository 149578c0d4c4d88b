// A digest of every analysis that reads an index's advance/await answers:
// validation, the event-based reconstruction, and the critical path,
// waiting intervals and what-if DAG of both the analyzed trace and its
// reconstruction.  The partner-table tests pin it on the golden and
// degenerate traces (golden_digests.hpp, kAnalysesDigests).
#pragma once

#include <cstdint>
#include <exception>
#include <string>

#include "analysis/critical_path.hpp"
#include "analysis/sites.hpp"
#include "analysis/waiting.hpp"
#include "core/eventbased.hpp"
#include "experiments/experiments.hpp"
#include "golden_cases.hpp"
#include "trace/index.hpp"
#include "trace/validate.hpp"
#include "trace_digest.hpp"
#include "whatif/whatif.hpp"

namespace perturb::golden {

/// Critical path, waiting intervals and what-if DAG (sizes, baseline and a
/// 50% experiment on every site) of `t`.
inline void add_trace_analyses(trace::Fnv64& h, const trace::Trace& t) {
  const trace::TraceIndex index(t);

  const analysis::CriticalPathStats path = analysis::critical_path(index);
  h.add_signed(path.length);
  h.add_list(path.path);
  for (const trace::Tick k : path.time_by_kind) h.add_signed(k);
  for (const trace::Tick p : path.time_by_proc) h.add_signed(p);
  h.add(path.cross_processor_links);

  analysis::WaitClassifier c;
  c.await_nowait = 6;
  c.lock_acquire = 6;
  c.sem_acquire = 6;
  c.barrier_depart = 6;
  c.tolerance = 2;
  const analysis::WaitingStats waits = analysis::waiting_analysis(index, c);
  for (const trace::Tick w : waits.waiting_time) h.add_signed(w);
  h.add(waits.intervals.size());
  for (const analysis::WaitInterval& w : waits.intervals) {
    h.add(w.proc);
    h.add_signed(w.begin);
    h.add_signed(w.end);
    h.add(static_cast<std::uint64_t>(w.cause));
    h.add(w.object);
  }

  const analysis::SiteRegistry sites(index);
  const whatif::WhatIfDag dag(index, sites);
  h.add(dag.num_anchors());
  h.add(dag.num_edges());
  const auto add_result = [&](const whatif::WhatIfResult& r) {
    h.add_signed(r.makespan);
    h.add_signed(r.critical_path);
    for (const trace::Tick w : r.waiting) h.add_signed(w);
  };
  add_result(dag.baseline());
  whatif::WhatIfEngine engine(dag);
  for (analysis::SiteId s = 0; s < sites.size(); ++s)
    add_result(engine.run({s, 50}));
}

/// The golden approximation cases, then the degenerate traces, each with
/// full_plan()'s mean probe costs and its machine's sync costs.
inline std::vector<ApproxCase> partner_cases() {
  std::vector<ApproxCase> out = approx_cases();
  for (auto& [label, measured] : degenerate_traces()) {
    ApproxCase c{label, std::move(measured), {}, {}};
    c.overheads = experiments::overheads_for(
        full_plan(), machine(c.measured.info().num_procs));
    out.push_back(std::move(c));
  }
  return out;
}

/// Validation (no sync slack), then the reconstruction with the case's
/// overheads and options (or, when it throws, its message), then the
/// analyses of the measured trace and of the reconstruction.
inline std::uint64_t analyses_digest(const ApproxCase& c) {
  trace::Fnv64 h;
  const trace::Trace& measured = c.measured;
  const trace::TraceIndex index(measured);
  const std::vector<trace::Violation> violations =
      trace::validate(index, trace::ValidateOptions{});
  h.add(violations.size());
  for (const trace::Violation& violation : violations) {
    h.add(static_cast<std::uint64_t>(violation.kind));
    h.add(violation.event_index);
    for (const char ch : violation.message)
      h.add(static_cast<unsigned char>(ch));
  }

  add_trace_analyses(h, measured);
  try {
    const core::EventBasedResult r =
        core::event_based_approximation(index, c.overheads, c.options);
    h.add(trace::approx_digest(r));
    add_trace_analyses(h, r.approx);
  } catch (const std::exception& e) {
    for (const char ch : std::string(e.what()))
      h.add(static_cast<unsigned char>(ch));
  }
  return h.value();
}

}  // namespace perturb::golden
