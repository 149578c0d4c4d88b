// bench_model — analytical screening of experiment grids (DESIGN.md §12).
//
// Four gates, all deterministic (the simulator is seeded):
//
//   * equivalence: run_grid_screened over the 12-cell acceptance grid must
//     produce the designed confident/fall-through partition, fall-through
//     cells bit-identical to run_grid over the full list, and identical
//     results at 1 and 8 worker threads;
//   * accuracy: on every model-confident cell the analytical prediction of
//     the uninstrumented run must sit within kConfidentErrorBound of the
//     event-based reconstruction it replaces;
//   * cross-validation: the full Livermore grid (24 loops x 3 modes x 2
//     plans) is run both ways and every cell's (uncertainty, relative
//     error) pair is written to MODEL_crossval.json — the calibration
//     evidence behind experiments::kDefaultScreenThreshold;
//   * full screening: an all-DOALL sweep across plans is model-confident in
//     every cell, so screening it runs no simulation at all.
//
// The screening cost itself is measured by the ledger's experiments-grid
// workload (model.predict.us_per_cell), not here.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "support/check.hpp"
#include "support/fsio.hpp"
#include "support/text.hpp"

namespace {

using namespace perturb;

/// Largest model relative error tolerated on a confident cell, measured
/// against the better of the two references available in-process: the
/// event-based reconstruction the screen replaces, and the simulated actual
/// run.  Both matter: against eb alone the gate would be dominated by the
/// reconstruction's own fixed boundary-probe residual (~100 ticks, a large
/// *relative* error on cheap short loops where the model is in fact exact);
/// against actual alone it would not demonstrate consistency with the
/// pipeline.  The cross-validation sweep writes both errors per cell.
constexpr double kConfidentErrorBound = 0.08;

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
         a.tb_quality.percent_error == b.tb_quality.percent_error &&
         a.eb_quality.percent_error == b.eb_quality.percent_error;
}

double rel_error(trace::Tick predicted, trace::Tick reference) {
  if (reference <= 0) return 0.0;
  return std::abs(static_cast<double>(predicted - reference)) /
         static_cast<double>(reference);
}

/// Model error against the better reference (see kConfidentErrorBound).
double model_error(trace::Tick predicted, const experiments::LoopRun& run) {
  return std::min(
      rel_error(predicted, run.event_based.approx.total_time()),
      rel_error(predicted, run.actual.total_time()));
}

const char* plan_name(experiments::PlanKind plan) {
  switch (plan) {
    case experiments::PlanKind::kStatementsOnly: return "stmt";
    case experiments::PlanKind::kSyncOnly: return "sync";
    case experiments::PlanKind::kFull: return "full";
  }
  return "?";
}

/// The 12-cell acceptance grid: nine cells the model screens (DOALL loops
/// under full instrumentation, the distance-1 chains of loops 3 and 4 under
/// statement-only probes — slack in the chain — and sequential shapes
/// including loop 17's data-dependent statements) and three it must not:
/// loops 3 and 4 under full instrumentation (the chain nears saturation,
/// the paper's Table 1 under-approximation cells) and a self-scheduled
/// cell (dispatch order depends on jittered probe costs, opaque to the
/// closed form).
std::vector<experiments::Scenario> acceptance_grid(
    std::int64_t n, const experiments::Setup& setup) {
  using experiments::PlanKind;
  std::vector<experiments::Scenario> grid;
  grid.push_back(
      bench::concurrent_scenario(3, n, setup, PlanKind::kStatementsOnly));
  grid.push_back(
      bench::concurrent_scenario(4, n, setup, PlanKind::kStatementsOnly));
  grid.push_back(bench::concurrent_scenario(8, n, setup, PlanKind::kFull));
  grid.push_back(bench::concurrent_scenario(13, n, setup, PlanKind::kFull));
  grid.push_back(bench::concurrent_scenario(14, n, setup, PlanKind::kFull));
  grid.push_back(bench::concurrent_scenario(18, n, setup, PlanKind::kFull));
  grid.push_back(bench::sequential_scenario(17, n, setup));
  grid.push_back(
      bench::sequential_scenario(17, n, setup, experiments::PlanKind::kFull));
  grid.push_back(
      bench::sequential_scenario(20, n, setup, experiments::PlanKind::kFull));
  // Fall-through by design:
  grid.push_back(bench::concurrent_scenario(3, n, setup, PlanKind::kFull));
  grid.push_back(bench::concurrent_scenario(4, n, setup, PlanKind::kFull));
  grid.push_back(bench::concurrent_scenario(1, n, setup, PlanKind::kFull,
                                            sim::Schedule::kSelf));
  return grid;
}

constexpr std::size_t kExpectedConfident = 9;

}  // namespace

int main(int argc, char** argv) {
  const support::Cli cli(argc, argv);
  const std::string crossval_path =
      cli.get("crossval-out", "MODEL_crossval.json");
  const std::int64_t n = cli.get_int("n", 600);
  const std::int64_t crossval_n = cli.get_int("crossval-n", 300);
  const auto threads = static_cast<std::size_t>(cli.get_int("threads", 2));
  const experiments::Setup setup = bench::setup_from_cli(cli);

  bench::print_header(
      "BENCH model",
      "analytical screening of experiment grids versus full\n"
      "simulate+reconstruct (DESIGN.md §12)");

  const auto grid = acceptance_grid(n, setup);
  const experiments::GridOptions grid_options{.threads = threads,
                                              .memoize_actual = true};
  experiments::ScreenOptions screen_options;
  screen_options.grid = grid_options;

  // --- equivalence gates -------------------------------------------------
  const auto unscreened = experiments::run_grid(grid, grid_options);
  const auto screened = experiments::run_grid_screened(grid, screen_options);
  PERTURB_CHECK_MSG(screened.confident == kExpectedConfident &&
                        screened.fallthrough == grid.size() - kExpectedConfident,
                    "screening partition differs from the designed grid");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const bool expect_screened = i < kExpectedConfident;
    PERTURB_CHECK_MSG(screened.cells[i].screened == expect_screened,
                      "cell screened-state differs from the designed grid");
    if (!screened.cells[i].screened)
      PERTURB_CHECK_MSG(runs_equal(screened.cells[i].run, unscreened[i]),
                        "fall-through cell differs from the unscreened grid");
  }
  for (const std::size_t alt_threads : {std::size_t{1}, std::size_t{8}}) {
    experiments::ScreenOptions alt = screen_options;
    alt.grid.threads = alt_threads;
    const auto again = experiments::run_grid_screened(grid, alt);
    PERTURB_CHECK_MSG(again.confident == screened.confident &&
                          again.fallthrough == screened.fallthrough,
                      "screening partition varies with thread count");
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const auto& a = again.cells[i];
      const auto& b = screened.cells[i];
      PERTURB_CHECK_MSG(
          a.screened == b.screened &&
              a.prediction.actual.total == b.prediction.actual.total &&
              a.prediction.measured.total == b.prediction.measured.total &&
              a.prediction.uncertainty == b.prediction.uncertainty,
          "cell prediction varies with thread count");
      if (!a.screened)
        PERTURB_CHECK_MSG(runs_equal(a.run, b.run),
                          "fall-through run varies with thread count");
    }
  }
  std::printf("equivalence: partition %zu confident / %zu fall-through, "
              "bit-identical at 1/2/8 threads\n",
              screened.confident, screened.fallthrough);

  // --- accuracy gate ------------------------------------------------------
  double confident_max_err = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (!screened.cells[i].screened) continue;
    const double err =
        model_error(screened.cells[i].prediction.actual.total, unscreened[i]);
    confident_max_err = std::max(confident_max_err, err);
    PERTURB_CHECK_MSG(
        err <= kConfidentErrorBound,
        support::strf("confident cell %s-%s exceeds the model accuracy "
                      "bound: rel error %.4f",
                      experiments::scenario_name(grid[i]).c_str(),
                      plan_name(grid[i].plan), err));
  }
  std::printf("accuracy: confident-cell max rel error %.4f (bound %.2f)\n",
              confident_max_err, kConfidentErrorBound);

  // --- cross-validation: the full Livermore grid --------------------------
  std::string crossval = support::strf(
      "{\n  \"report\": \"model_crossval\",\n  \"n\": %lld,\n"
      "  \"threshold\": %.2f,\n  \"error_bound\": %.2f,\n  \"cells\": [\n",
      static_cast<long long>(crossval_n),
      experiments::kDefaultScreenThreshold, kConfidentErrorBound);
  double cv_confident_max_err = 0.0;
  double cv_uncertain_min_u = 1.0;
  std::size_t cv_confident = 0, cv_rows = 0;
  bool cv_separated = true;
  {
    std::vector<experiments::Scenario> cells;
    for (int k = 1; k <= 24; ++k) {
      for (const auto plan : {experiments::PlanKind::kStatementsOnly,
                              experiments::PlanKind::kFull}) {
        cells.push_back(bench::sequential_scenario(k, crossval_n, setup, plan));
        cells.push_back(bench::concurrent_scenario(k, crossval_n, setup, plan));
        cells.push_back(bench::vector_scenario(k, crossval_n, setup, plan));
      }
    }
    const auto runs = experiments::run_grid(cells, grid_options);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto prediction = experiments::predict_scenario(cells[i]);
      const auto eb = runs[i].event_based.approx.total_time();
      const auto actual = runs[i].actual.total_time();
      const double err = model_error(prediction.actual.total, runs[i]);
      const bool confident =
          prediction.uncertainty <= experiments::kDefaultScreenThreshold;
      if (confident) {
        ++cv_confident;
        cv_confident_max_err = std::max(cv_confident_max_err, err);
      } else {
        cv_uncertain_min_u =
            std::min(cv_uncertain_min_u, prediction.uncertainty);
      }
      // The calibration claim: no confident cell may exceed the bound.
      if (confident && err > kConfidentErrorBound) cv_separated = false;
      if (cv_rows++) crossval += ",\n";
      crossval += support::strf(
          "    {\"cell\": \"%s-%s\", \"uncertainty\": %.3f, "
          "\"predicted\": %lld, \"event_based\": %lld, \"actual\": %lld, "
          "\"rel_error_eb\": %.4f, \"rel_error_actual\": %.4f, "
          "\"confident\": %s}",
          experiments::scenario_name(cells[i]).c_str(),
          plan_name(cells[i].plan), prediction.uncertainty,
          static_cast<long long>(prediction.actual.total),
          static_cast<long long>(eb), static_cast<long long>(actual),
          rel_error(prediction.actual.total, eb),
          rel_error(prediction.actual.total, actual),
          confident ? "true" : "false");
    }
    crossval += support::strf(
        "\n  ],\n  \"summary\": {\"cells\": %zu, \"confident\": %zu, "
        "\"fallthrough\": %zu, \"confident_max_rel_error\": %.4f, "
        "\"fallthrough_min_uncertainty\": %.3f, \"separated\": %s}\n}\n",
        cells.size(), cv_confident, cells.size() - cv_confident,
        cv_confident_max_err, cv_uncertain_min_u,
        cv_separated ? "true" : "false");
    PERTURB_CHECK_MSG(cv_separated,
                      "cross-validation: a confident cell exceeds the "
                      "accuracy bound (threshold miscalibrated)");
    std::printf(
        "cross-validation: %zu cells, %zu confident (max rel error %.4f), "
        "%zu fall-through (min uncertainty %.3f)\n",
        cells.size(), cv_confident, cv_confident_max_err,
        cells.size() - cv_confident, cv_uncertain_min_u);
  }

  // --- full screening: an all-confident sweep ------------------------------
  // DOALL loops across plans: the model answers every cell, so the screened
  // sweep does no simulation at all.
  std::vector<experiments::Scenario> confident_sweep;
  for (const int loop : {1, 7, 8, 9, 10, 12, 13, 14})
    for (const auto plan : {experiments::PlanKind::kStatementsOnly,
                            experiments::PlanKind::kFull})
      confident_sweep.push_back(
          bench::concurrent_scenario(loop, n, setup, plan));
  const auto sweep = experiments::run_grid_screened(confident_sweep,
                                                    screen_options);
  PERTURB_CHECK_MSG(sweep.fallthrough == 0,
                    "confident sweep unexpectedly fell through");
  std::printf("full screening: %zu-cell DOALL sweep, every cell confident\n",
              confident_sweep.size());

  std::string werr;
  PERTURB_CHECK_MSG(support::write_file_atomic(crossval_path, crossval, &werr),
                    "cannot write cross-validation report");
  std::printf("\nwrote %s\n", crossval_path.c_str());
  return 0;
}
