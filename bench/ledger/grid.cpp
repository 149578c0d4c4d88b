// experiments-grid: one screened sweep per job, in memory (simulate, model,
// repair, analyze; no files, no what-if, no daemon).
#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

#include "experiments/grid.hpp"
#include "loops/programs.hpp"
#include "pins.hpp"
#include "support/parallel.hpp"
#include "support/text.hpp"
#include "trace/faults.hpp"
#include "trace/repair.hpp"
#include "workload/workload.hpp"
#include "workloads.hpp"

namespace ledger {

namespace {

using namespace perturb;
using experiments::Scenario;

/// The sweep: Livermore 3/4/17 x three plans x {cyclic, self} at n=1001;
/// four synthesized families x three seeds at trip 600 (contention cells
/// guard every statement with a semaphore, the offline contention workload
/// with a lock); and six fault cells (skewed clocks or dropped advances,
/// conservative or aggressive repair).
std::vector<Scenario> make_cells(const Options& options) {
  experiments::Setup setup;
  setup.seed = jitter_seed(options.seed);
  const std::int64_t n = options.smoke ? 200 : 1001;
  std::vector<Scenario> cells;
  const auto livermore = [&](int loop, experiments::PlanKind plan,
                             sim::Schedule schedule) {
    Scenario s;
    s.loop = loop;
    s.n = n;
    s.schedule = schedule;
    s.setup = setup;
    s.plan = plan;
    return s;
  };
  for (const int loop : {3, 4, 17})
    for (const auto plan :
         {experiments::PlanKind::kStatementsOnly, experiments::PlanKind::kFull,
          experiments::PlanKind::kSyncOnly})
      for (const auto schedule : {sim::Schedule::kCyclic, sim::Schedule::kSelf})
        cells.push_back(livermore(loop, plan, schedule));

  for (const auto family :
       {workload::Family::kPareto, workload::Family::kContention,
        workload::Family::kBursty, workload::Family::kIrregular}) {
    for (std::uint64_t k = 0; k < 3; ++k) {
      Scenario s;
      s.setup = setup;
      s.plan = experiments::PlanKind::kFull;
      workload::WorkloadSpec spec;
      spec.family = family;
      spec.seed = 3 * options.seed + k;
      spec.params = workload::default_params(family);
      spec.params.trip = options.smoke ? 150 : 600;
      // Pin the shape draws (chain, guards) so that every seed asks for
      // the same work; irregular phase trips stay drawn.
      if (family != workload::Family::kBursty) spec.params.chain_prob = 1.0;
      if (family == workload::Family::kContention) {
        spec.params.critical_density = 0.0;
        spec.params.sem_density = 1.0;
      }
      if (family == workload::Family::kIrregular)
        spec.params.critical_density = 0.0;
      s.workload = spec;
      cells.push_back(s);
    }
  }

  const std::uint64_t fault_seed = options.seed + 11;
  for (const auto repair :
       {core::RepairMode::kConservative, core::RepairMode::kAggressive}) {
    Scenario skew3 = livermore(3, experiments::PlanKind::kFull,
                               sim::Schedule::kCyclic);
    skew3.repair = repair;
    skew3.mutate_measured = [fault_seed](trace::Trace& t) {
      t = trace::skew_timestamps(t, 40, 0.3, fault_seed);
    };
    Scenario drop17 = livermore(17, experiments::PlanKind::kFull,
                                sim::Schedule::kCyclic);
    drop17.repair = repair;
    drop17.mutate_measured = [fault_seed](trace::Trace& t) {
      t = trace::drop_events(t, trace::EventKind::kAdvance, 3, fault_seed);
    };
    Scenario skew4 = livermore(4, experiments::PlanKind::kFull,
                               sim::Schedule::kSelf);
    skew4.repair = repair;
    skew4.mutate_measured = [fault_seed](trace::Trace& t) {
      t = trace::skew_timestamps(t, 40, 0.3, fault_seed + 1);
    };
    cells.push_back(skew3);
    cells.push_back(drop17);
    cells.push_back(skew4);
  }
  return cells;
}

experiments::ScreenedGrid sweep(const std::vector<Scenario>& cells,
                                std::size_t threads) {
  experiments::ScreenOptions screen;
  screen.grid.threads = threads;
  screen.grid.memoize_actual = true;
  return experiments::run_grid_screened(cells, screen);
}

bool same_quality(const core::ApproximationQuality& a,
                  const core::ApproximationQuality& b) {
  return a.measured_over_actual == b.measured_over_actual &&
         a.approx_over_actual == b.approx_over_actual &&
         a.percent_error == b.percent_error &&
         a.mean_abs_event_error == b.mean_abs_event_error &&
         a.rms_event_error == b.rms_event_error &&
         a.p50_event_error == b.p50_event_error &&
         a.p95_event_error == b.p95_event_error &&
         a.matched_events == b.matched_events &&
         a.degraded_input == b.degraded_input;
}

bool same_grid(const experiments::ScreenedGrid& a,
               const experiments::ScreenedGrid& b) {
  if (a.cells.size() != b.cells.size() || a.confident != b.confident)
    return false;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const auto& x = a.cells[i];
    const auto& y = b.cells[i];
    if (x.screened != y.screened ||
        x.prediction.actual.total != y.prediction.actual.total ||
        x.prediction.measured.total != y.prediction.measured.total ||
        x.prediction.uncertainty != y.prediction.uncertainty)
      return false;
    if (x.screened) continue;
    if (!same_events(x.run.actual, y.run.actual) ||
        !same_events(x.run.measured, y.run.measured) ||
        !same_events(x.run.time_based, y.run.time_based) ||
        !same_events(x.run.event_based.approx, y.run.event_based.approx) ||
        !same_quality(x.run.tb_quality, y.run.tb_quality) ||
        !same_quality(x.run.eb_quality, y.run.eb_quality))
      return false;
    const core::EventBasedResult& p = x.run.event_based;
    const core::EventBasedResult& q = y.run.event_based;
    if (p.awaits_total != q.awaits_total ||
        p.waits_measured != q.waits_measured ||
        p.waits_approx != q.waits_approx ||
        p.waits_removed != q.waits_removed ||
        p.waits_introduced != q.waits_introduced)
      return false;
  }
  return true;
}

/// Per-sweep output check for the timed loop: every prediction, every
/// fall-through trace's size and total time, and every error.
std::uint64_t grid_digest(const experiments::ScreenedGrid& g) {
  std::uint64_t h = kDigestBasis;
  for (const auto& c : g.cells) {
    h = mix(h, c.screened ? 1 : 0);
    h = mix(h, static_cast<std::uint64_t>(c.prediction.actual.total));
    h = mix(h, static_cast<std::uint64_t>(c.prediction.measured.total));
    if (c.screened) continue;
    for (const trace::Trace* t : {&c.run.actual, &c.run.measured,
                                  &c.run.time_based,
                                  &c.run.event_based.approx}) {
      h = mix(h, t->size());
      h = mix(h, static_cast<std::uint64_t>(t->total_time()));
    }
    h = mix(h, static_cast<std::uint64_t>(
                   std::llround(c.run.eb_quality.percent_error * 1e9)));
  }
  return h;
}

// ---- the traced sweep -------------------------------------------------------

sim::Program program_of(const Scenario& s) {
  if (s.workload) return workload::make_program(*s.workload);
  return loops::make_concurrent_ir(s.loop, s.n, s.schedule);
}

/// Cells sharing this key share one uninstrumented run (run_grid's memo; all
/// cells here are concurrent-mode on one machine).
std::string actual_key(const Scenario& s) {
  if (s.workload) return "wl|" + workload::workload_key(*s.workload);
  return support::strf("lfk|%d|%lld|%d", s.loop, static_cast<long long>(s.n),
                       static_cast<int>(s.schedule));
}

struct TracedSweep {
  experiments::ScreenedGrid grid;
  std::vector<double> cell_secs;  ///< per fall-through cell, phase two
  double busy_secs = 0.0;         ///< all worker-side work
  std::size_t unique_actuals = 0;
  double actual_events = 0.0;
};

/// run_grid_screened decomposed into its calls: predict_scenario per cell,
/// then run_grid's two parallel phases (unique actual runs; per cell the
/// measured run, fault injection and analyze_pair), each call in a span.
void traced_sweep(const std::vector<Scenario>& cells, std::size_t threads,
                  Tracer* tracer, std::int32_t job, TracedSweep& out) {
  const Span job_span(tracer, "job", job);
  experiments::ScreenedGrid& grid = out.grid;
  grid.cells.resize(cells.size());
  std::vector<std::size_t> fall;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Span s(tracer, "model.predict", job);
    auto& cell = grid.cells[i];
    cell.prediction = experiments::predict_scenario(cells[i]);
    cell.screened =
        cell.prediction.uncertainty <= experiments::kDefaultScreenThreshold;
    if (!cell.screened) fall.push_back(i);
  }
  grid.fallthrough = fall.size();
  grid.confident = cells.size() - fall.size();

  std::vector<std::size_t> actual_of(fall.size());
  std::vector<std::size_t> owner;
  {
    std::unordered_map<std::string, std::size_t> index;
    for (std::size_t k = 0; k < fall.size(); ++k) {
      const auto [it, fresh] =
          index.try_emplace(actual_key(cells[fall[k]]), owner.size());
      if (fresh) owner.push_back(k);
      actual_of[k] = it->second;
    }
  }
  out.unique_actuals = owner.size();
  out.cell_secs.assign(fall.size(), 0.0);
  std::vector<double> actual_secs(owner.size(), 0.0);
  std::vector<double> actual_events(owner.size(), 0.0);
  std::vector<trace::Trace> actuals(owner.size());

  const Span phase(tracer, "experiments.run_grid", job);
  support::TaskPool pool(threads);
  const auto tid = [](std::size_t worker) {
    return static_cast<std::uint32_t>(worker + 1);
  };
  const auto run_cell = [&](std::size_t worker, std::size_t k,
                            trace::Trace actual) {
    const Scenario& s = cells[fall[k]];
    const auto start = Clock::now();
    const Span cell(tracer, "experiments.cell", job, phase.id(), tid(worker));
    const instr::InstrumentationPlan plan =
        experiments::make_plan(s.plan, s.setup);
    const sim::Program program = program_of(s);
    trace::Trace measured;
    {
      const Span m(tracer, "sim.simulate", job);
      const std::string name = experiments::scenario_name(s) + "/measured";
      if (s.workload && workload::has_interference(*s.workload)) {
        const workload::InterferenceHook hook(plan, *s.workload);
        measured = sim::simulate(s.setup.machine, program, hook, name);
      } else {
        measured = sim::simulate(s.setup.machine, program, plan, name);
      }
    }
    if (s.mutate_measured) {
      const Span f(tracer, "trace.faults", job);
      s.mutate_measured(measured);
    }
    const auto caps = s.workload ? workload::semaphore_capacities(program)
                                 : std::map<trace::ObjectId, std::int64_t>{};
    {
      const Span a(tracer, "experiments.analyze_pair", job);
      grid.cells[fall[k]].run =
          experiments::analyze_pair(std::move(actual), std::move(measured),
                                    plan, s.setup.machine, s.repair, caps);
    }
    out.cell_secs[k] = seconds_since(start);
  };
  const auto simulate_actual = [&](std::size_t worker, std::size_t k) {
    const Scenario& s = cells[fall[k]];
    const auto start = Clock::now();
    const Span a(tracer, "sim.simulate_actual", job, phase.id(), tid(worker));
    trace::Trace& actual = actuals[actual_of[k]];
    actual = sim::simulate_actual(s.setup.machine, program_of(s),
                                  experiments::scenario_name(s) + "/actual");
    actual_secs[actual_of[k]] = seconds_since(start);
    actual_events[actual_of[k]] = static_cast<double>(actual.size());
  };
  if (owner.size() == fall.size()) {
    pool.parallel_for(fall.size(), [&](std::size_t worker, std::size_t k) {
      simulate_actual(worker, k);
      run_cell(worker, k, std::move(actuals[k]));
    });
  } else {
    pool.parallel_for(owner.size(), [&](std::size_t worker, std::size_t u) {
      simulate_actual(worker, owner[u]);
    });
    pool.parallel_for(fall.size(), [&](std::size_t worker, std::size_t k) {
      run_cell(worker, k, trace::Trace(actuals[actual_of[k]]));
    });
  }
  for (const double s : actual_secs) out.busy_secs += s;
  for (const double s : out.cell_secs) out.busy_secs += s;
  for (const double e : actual_events) out.actual_events += e;
}

double measured_events(const experiments::ScreenedGrid& g) {
  double events = 0.0;
  for (const auto& c : g.cells)
    if (!c.screened) events += static_cast<double>(c.run.measured.size());
  return events;
}

double mean_error_pct(const experiments::ScreenedGrid& g) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& c : g.cells) {
    if (c.screened) continue;
    sum += std::abs(c.run.eb_quality.percent_error);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

/// Max over mean of the per-worker sums of `secs` under TaskPool's static
/// split: worker w runs [w*n/W, (w+1)*n/W).
double partition_imbalance(const std::vector<double>& secs,
                           std::size_t workers) {
  const std::size_t n = secs.size();
  if (n == 0) return 1.0;
  workers = std::min(workers, n);
  std::vector<double> sums(workers, 0.0);
  for (std::size_t w = 0; w < workers; ++w)
    for (std::size_t i = w * n / workers; i < (w + 1) * n / workers; ++i)
      sums[w] += secs[i];
  double total = 0.0;
  for (const double s : sums) total += s;
  const double mean = total / static_cast<double>(workers);
  return mean > 0.0 ? *std::max_element(sums.begin(), sums.end()) / mean
                    : 1.0;
}

}  // namespace

void run_grid(const Options& options, Report& report) {
  std::vector<Scenario> cells;
  std::uint64_t expect = 0;
  report_setup(options, [&] {
    cells = make_cells(options);
    expect = grid_digest(sweep(cells, options.threads));
  }, report);

  std::uint64_t child_digest = 0;
  report.e2e("peak_rss_mb", peak_rss_mb([&] {
               return grid_digest(sweep(cells, options.threads));
             }, child_digest),
             "MiB");
  gate(child_digest == expect, "forked sweep differs from in-process");

  // Gates: bit-identical at 1 and --threads workers, and the decomposed
  // sweep reproduces run_grid_screened.
  const experiments::ScreenedGrid reference = sweep(cells, options.threads);
  gate(same_grid(sweep(cells, 1), reference),
       "grid differs between 1 and --threads workers");
  {
    TracedSweep decomposed;
    traced_sweep(cells, options.threads, nullptr, 0, decomposed);
    gate(same_grid(decomposed.grid, reference),
         "decomposed sweep differs from run_grid_screened");
  }
  const double error = mean_error_pct(reference);
  report.layer("core.recon_error_pct", error, "%");
  if (!options.smoke && options.seed == 7) {
    const double pin = pinned_recon_error_pct(options.workload);
    gate(std::abs(error - pin) < 1e-6,
         support::strf("recon_error_pct %.9f differs from the pinned %.9f",
                       error, pin));
  }
  const double events = measured_events(reference);

  const auto untraced = [&](bool& ok) {
    const auto start = Clock::now();
    const experiments::ScreenedGrid g = sweep(cells, options.threads);
    const double secs = seconds_since(start);
    ok = grid_digest(g) == expect;
    return secs;
  };
  const std::vector<double> samples =
      run_loop(options.seconds, options.smoke ? 3 : 100, untraced, report);
  report_job_times(samples, 0.90, report);
  report.e2e("events_per_s", events / median(samples), "events/s");
  if (!options.trace) return;

  Tracer tracer;
  std::vector<double> efficiency;
  std::vector<double> imbalance;
  TracedSweep last;
  const std::vector<double> paired = run_traced(
      options, untraced,
      [&](std::int32_t j) {
        last = TracedSweep{};
        const auto start = Clock::now();
        traced_sweep(cells, options.threads, &tracer, j, last);
        const double wall = seconds_since(start);
        ++report.attempted;
        if (grid_digest(last.grid) != expect) ++report.failed;
        efficiency.push_back(last.busy_secs /
                             (wall * static_cast<double>(options.threads)));
        imbalance.push_back(
            partition_imbalance(last.cell_secs, options.threads));
      },
      report);
  const std::size_t jobs = paired.size();

  // trace::repair on every fault cell's damaged trace, outside the jobs:
  // analyze_pair runs it internally, where no outside span can reach it.
  double repaired_events = 0.0;
  for (const Scenario& s : cells) {
    if (!s.mutate_measured) continue;
    trace::Trace measured = sim::simulate(
        s.setup.machine, program_of(s), experiments::make_plan(s.plan, s.setup),
        experiments::scenario_name(s) + "/measured");
    s.mutate_measured(measured);
    trace::RepairOptions repair;
    repair.aggressive = s.repair == core::RepairMode::kAggressive;
    const Span probe(&tracer, "trace.repair", -1);
    const trace::RepairResult result = trace::repair(measured, repair);
    gate(result.manifest.severity != trace::RepairSeverity::kUnsalvageable,
         "fault cell is unsalvageable");
    repaired_events += static_cast<double>(measured.size());
  }
  report_tracing(tracer, median(paired), options, report);

  const auto self_ns = tracer.self_ns();
  const double n_jobs = static_cast<double>(jobs);
  const double cells_run = static_cast<double>(last.grid.fallthrough) * n_jobs;
  report.layer("sim.simulate.ns_per_event",
               ns_per_event(self_ns, "sim.simulate", events * n_jobs), "ns");
  report.layer("sim.simulate_actual.ns_per_event",
               ns_per_event(self_ns, "sim.simulate_actual",
                            last.actual_events * n_jobs),
               "ns");
  report.layer("trace.repair.ns_per_event",
               ns_per_event(self_ns, "trace.repair", repaired_events), "ns");
  report.layer("model.predict.us_per_cell",
               ns_per_event(self_ns, "model.predict",
                            static_cast<double>(cells.size()) * n_jobs) /
                   1e3,
               "us");
  report.layer("model.confident_frac",
               static_cast<double>(last.grid.confident) /
                   static_cast<double>(cells.size()),
               "ratio");
  report.layer("experiments.analyze_pair.ms_per_cell",
               ns_per_event(self_ns, "experiments.analyze_pair", cells_run) /
                   1e6,
               "ms");
  report.layer("experiments.parallel_efficiency", median(efficiency),
               "ratio");
  report.layer("experiments.partition_imbalance", median(imbalance), "ratio");
  report.layer("experiments.memo_hit_frac",
               1.0 - static_cast<double>(last.unique_actuals) /
                         static_cast<double>(last.grid.fallthrough),
               "ratio");
}

}  // namespace ledger
