// bench_workload — reconstruction-error phase diagrams over synthesized
// workloads (DESIGN.md §14).
//
// The Livermore suite shows where event-based reconstruction works; this
// bench maps where it breaks down, along two axes:
//
//   * error vs tail weight: Pareto per-iteration costs under self-scheduling
//     with a DOACROSS chain, tail index alpha swept heavy to light, plus a
//     Livermore-like control (near-uniform costs, cyclic schedule, no
//     chain).  Heavy tails push reconstruction error past 5% while the
//     control stays under 1% — the boundary of the paper's method;
//   * error vs contention density: critical-section/semaphore densities
//     swept from 0 upward, plus the bursty-interference family whose probe
//     inflation reconstruction cannot subtract (a guaranteed failure mode).
//
// Gates (all deterministic — the simulator is seeded, so error percentages
// are bit-stable across hosts):
//   * the whole grid is bit-identical at 1 and 8 worker threads (the
//     synthesized actual-run memo keys are exercised: tail cells share
//     nothing, control cells share nothing, repeats share everything);
//   * heavy-tail and bursty cells exceed 5% mean |error|; the control stays
//     under 1%;
//   * the tail sweep falls from heavy to light, and the contention sweep
//     rises by at least half a percentage point from sparse to dense;
//   * cross-validation: no cell whose measured error exceeds 5% may be
//     model-confident at experiments::kDefaultScreenThreshold — the
//     analytic uncertainty must flag every cell the phase diagram condemns.
//
// Per-cell phase data goes to --phase-out (default WORKLOAD_phase.json).
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "experiments/grid.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/fsio.hpp"
#include "support/text.hpp"
#include "workload/workload.hpp"

namespace {

using namespace perturb;

/// One phase-diagram cell: a workload scenario plus its sweep coordinates.
struct PhaseCell {
  std::string sweep;   ///< "tail", "control", "contention", "bursty"
  double knob = 0.0;   ///< swept coordinate (alpha or density)
  experiments::Scenario scenario;
};

experiments::Scenario workload_scenario(const workload::WorkloadSpec& spec,
                                        const experiments::Setup& setup) {
  experiments::Scenario s;
  s.setup = setup;
  s.plan = experiments::PlanKind::kFull;
  s.workload = spec;
  return s;
}

bool traces_equal(const trace::Trace& a, const trace::Trace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(a[i] == b[i])) return false;
  return true;
}

bool runs_equal(const experiments::LoopRun& a, const experiments::LoopRun& b) {
  return traces_equal(a.actual, b.actual) &&
         traces_equal(a.measured, b.measured) &&
         traces_equal(a.time_based, b.time_based) &&
         traces_equal(a.event_based.approx, b.event_based.approx) &&
         a.eb_quality.percent_error == b.eb_quality.percent_error;
}

}  // namespace

int main(int argc, char** argv) {
  const support::Cli cli(argc, argv);
  const std::string phase_path = cli.get("phase-out", "WORKLOAD_phase.json");
  const std::int64_t trip = cli.get_int("trip", 600);
  const auto threads = static_cast<std::size_t>(cli.get_int("threads", 2));
  const experiments::Setup setup = experiments::setup_from_cli(cli);

  std::printf(
      "== BENCH workload ==\nreconstruction-error phase diagrams over "
      "synthesized workloads\n(heavy tails, contention density, bursty "
      "interference; DESIGN.md §14)\n\n");

  const std::vector<std::uint64_t> seeds = {5, 7, 9};
  std::vector<PhaseCell> cells;

  // --- tail sweep: Pareto alpha, heavy to light -------------------------
  const std::vector<double> alphas = {1.3, 1.6, 2.0, 3.0, 6.0};
  for (const double alpha : alphas) {
    for (const std::uint64_t seed : seeds) {
      workload::WorkloadSpec spec;
      spec.family = workload::Family::kPareto;
      spec.seed = seed;
      spec.params = workload::default_params(spec.family);
      spec.params.trip = trip;
      spec.params.alpha = alpha;
      cells.push_back({"tail", alpha, workload_scenario(spec, setup)});
    }
  }
  // Livermore-like control: near-uniform costs, static schedule, no chain.
  for (const std::uint64_t seed : seeds) {
    workload::WorkloadSpec spec;
    spec.family = workload::Family::kPareto;
    spec.seed = seed;
    spec.params = workload::default_params(spec.family);
    spec.params.trip = trip;
    spec.params.alpha = 8.0;
    spec.params.chain_prob = 0.0;
    spec.params.schedule = sim::Schedule::kCyclic;
    cells.push_back({"control", 8.0, workload_scenario(spec, setup)});
  }

  // --- contention sweep: critical-section density -----------------------
  const std::vector<double> densities = {0.0, 0.2, 0.4, 0.6};
  for (const double crit : densities) {
    for (const std::uint64_t seed : seeds) {
      workload::WorkloadSpec spec;
      spec.family = workload::Family::kContention;
      spec.seed = seed;
      spec.params = workload::default_params(spec.family);
      spec.params.trip = std::max<std::int64_t>(1, trip * 2 / 3);
      spec.params.critical_density = crit;
      spec.params.sem_density = crit / 2.0;
      cells.push_back({"contention", crit, workload_scenario(spec, setup)});
    }
  }
  // Bursty interference: the guaranteed failure mode (unmodeled probe
  // inflation), one cell per seed at the family defaults.
  for (const std::uint64_t seed : seeds) {
    workload::WorkloadSpec spec;
    spec.family = workload::Family::kBursty;
    spec.seed = seed;
    spec.params = workload::default_params(spec.family);
    spec.params.trip = trip;
    cells.push_back(
        {"bursty", spec.params.burst_frac, workload_scenario(spec, setup)});
  }

  std::vector<experiments::Scenario> grid;
  grid.reserve(cells.size());
  for (const PhaseCell& c : cells) grid.push_back(c.scenario);

  // --- determinism gate: bit-identical at 1 and 8 worker threads --------
  experiments::GridOptions opts;
  opts.threads = threads;
  opts.memoize_actual = true;
  const auto runs = experiments::run_grid(grid, opts);
  for (const std::size_t alt : {std::size_t{1}, std::size_t{8}}) {
    experiments::GridOptions alt_opts;
    alt_opts.threads = alt;
    alt_opts.memoize_actual = alt != 1;
    const auto again = experiments::run_grid(grid, alt_opts);
    for (std::size_t i = 0; i < grid.size(); ++i)
      PERTURB_CHECK_MSG(
          runs_equal(runs[i], again[i]),
          support::strf("workload grid varies with thread count (cell %zu, "
                        "%zu threads)",
                        i, alt));
  }
  std::printf("determinism: %zu cells bit-identical at 1/%zu/8 threads\n",
              grid.size(), threads);

  // --- phase data and sweep aggregates ----------------------------------
  struct Agg {
    double sum = 0.0;
    int count = 0;
    double mean() const { return count ? sum / count : 0.0; }
  };
  std::map<std::string, std::map<double, Agg>> sweeps;
  std::string phase = "{\n  \"report\": \"workload_phase\",\n  \"cells\": [\n";
  bool crossval_ok = true;
  std::string crossval_victim;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const PhaseCell& c = cells[i];
    const double err = std::abs(runs[i].eb_quality.percent_error);
    const double tb_err = std::abs(runs[i].tb_quality.percent_error);
    sweeps[c.sweep][c.knob].sum += err;
    sweeps[c.sweep][c.knob].count += 1;
    const auto prediction = experiments::predict_scenario(c.scenario);
    const bool confident =
        prediction.uncertainty <= experiments::kDefaultScreenThreshold;
    // The cross-validation claim: the model must not be confident about any
    // cell whose reconstruction demonstrably failed.
    if (err > 5.0 && confident) {
      crossval_ok = false;
      crossval_victim = experiments::scenario_name(c.scenario);
    }
    if (i) phase += ",\n";
    phase += support::strf(
        "    {\"sweep\": \"%s\", \"knob\": %.3f, \"cell\": \"%s\", "
        "\"measured_over_actual\": %.3f, \"eb_error_pct\": %.3f, "
        "\"tb_error_pct\": %.3f, \"uncertainty\": %.3f, \"confident\": %s}",
        c.sweep.c_str(), c.knob,
        experiments::scenario_name(c.scenario).c_str(),
        runs[i].eb_quality.measured_over_actual, err, tb_err,
        prediction.uncertainty, confident ? "true" : "false");
  }
  PERTURB_CHECK_MSG(
      crossval_ok,
      support::strf("model confidently screened a failing cell (%s)",
                    crossval_victim.c_str()));

  for (const auto& [sweep, knobs] : sweeps) {
    std::printf("%s sweep:\n", sweep.c_str());
    for (const auto& [knob, agg] : knobs)
      std::printf("  knob %6.2f: mean |eb error| %6.2f%%  (%d cells)\n", knob,
                  agg.mean(), agg.count);
  }

  const double heavy_err = sweeps["tail"][alphas.front()].mean();
  const double light_err = sweeps["tail"][alphas.back()].mean();
  const double control_err = sweeps["control"][8.0].mean();
  const double bursty_err =
      sweeps["bursty"].begin()->second.mean();
  const double cont_low = sweeps["contention"][densities.front()].mean();
  const double cont_high = sweeps["contention"][densities.back()].mean();

  // --- phase-diagram gates ----------------------------------------------
  PERTURB_CHECK_MSG(heavy_err > 5.0,
                    support::strf("heavy-tail cells should exceed 5%% error, "
                                  "got %.2f%%", heavy_err));
  PERTURB_CHECK_MSG(bursty_err > 5.0,
                    support::strf("bursty cells should exceed 5%% error, got "
                                  "%.2f%%", bursty_err));
  PERTURB_CHECK_MSG(control_err < 1.0,
                    support::strf("Livermore-like control should stay under "
                                  "1%% error, got %.2f%%", control_err));
  PERTURB_CHECK_MSG(heavy_err > light_err,
                    "tail sweep is not monotone: heavy <= light");
  PERTURB_CHECK_MSG(cont_high - cont_low >= 0.5,
                    support::strf("contention sweep should rise by >= 0.5 "
                                  "points from sparse to dense, got %.2f%% "
                                  "-> %.2f%%", cont_low, cont_high));
  std::printf(
      "\ngates: heavy tail %.2f%% > 5%%, bursty %.2f%% > 5%%, control "
      "%.2f%% < 1%%, contention %.2f%% -> %.2f%%\n",
      heavy_err, bursty_err, control_err, cont_low, cont_high);

  phase += "\n  ]\n}\n";

  std::string werr;
  PERTURB_CHECK_MSG(support::write_file_atomic(phase_path, phase, &werr),
                    "cannot write phase report");
  std::printf("wrote %s\n", phase_path.c_str());
  return 0;
}
