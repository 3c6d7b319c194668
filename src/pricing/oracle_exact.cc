#include "pricing/oracle_exact.h"

#include <algorithm>
#include <cmath>

#include "pricing/oracle_search.h"
#include "util/logging.h"

namespace maps {

namespace {

/// Builds the PricedTask vector for a snapshot under a price assignment:
/// task r pays grid_prices[g(r)] per unit distance and accepts with the
/// TRUE ratio S_g(p). Shared by every scoring path so exact and MC scores
/// of the same prices see byte-identical inputs.
void BuildPricedTasks(const MarketSnapshot& snapshot, const DemandOracle& truth,
                      const std::vector<double>& grid_prices,
                      std::vector<PricedTask>* priced) {
  priced->clear();
  priced->reserve(snapshot.tasks().size());
  for (const Task& t : snapshot.tasks()) {
    const double p = grid_prices[t.grid];
    priced->push_back(
        PricedTask{t.distance, p, truth.TrueAcceptRatio(t.grid, p)});
  }
}

/// Half width of the normal-approximation CI from power sums. Uses the
/// unbiased sample variance; clamps the 2^-53-scale negative values that
/// cancellation can produce.
double HalfWidth(const WorldMomentSums& m, int64_t n, double z) {
  if (n < 2) return 0.0;
  const double nn = static_cast<double>(n);
  double var = (m.sum_squares - m.sum * m.sum / nn) / (nn - 1.0);
  if (var < 0.0) var = 0.0;
  return z * std::sqrt(var / nn);
}

}  // namespace

McCiEstimate MonteCarloExpectedRevenueWithCI(
    const BipartiteGraph& graph, const std::vector<PricedTask>& tasks,
    const McCiOptions& options, ThreadPool* pool,
    std::vector<PossibleWorldsWorkspace>* workspaces) {
  MAPS_CHECK_GT(options.batch_worlds, 0);
  MAPS_CHECK_GE(options.max_worlds, options.batch_worlds);
  WorldMomentSums total;
  McCiEstimate est;
  while (est.worlds < options.max_worlds) {
    const int64_t batch = std::min<int64_t>(
        options.batch_worlds, options.max_worlds - est.worlds);
    const WorldMomentSums m = MonteCarloRevenueMoments(
        graph, tasks, options.seed, /*first_world=*/est.worlds, batch, pool,
        workspaces);
    // One fixed fold order: batches accumulate in schedule order, shards
    // within a batch in shard order — nothing depends on the thread count.
    total.sum += m.sum;
    total.sum_squares += m.sum_squares;
    est.worlds += batch;
    est.mean = total.sum / static_cast<double>(est.worlds);
    est.half_width = HalfWidth(total, est.worlds, options.z);
    const double tolerance = std::max(
        options.rel_half_width * std::abs(est.mean), options.abs_half_width);
    if (est.worlds >= 2 && est.half_width <= tolerance) {
      est.converged = true;
      break;
    }
  }
  return est;
}

McCiEstimate MonteCarloRevenueOfPricesWithCI(
    const MarketSnapshot& snapshot, const DemandOracle& truth,
    const std::vector<double>& grid_prices, const McCiOptions& options,
    ThreadPool* pool) {
  const BipartiteGraph& graph = snapshot.graph();
  std::vector<PricedTask> priced;
  BuildPricedTasks(snapshot, truth, grid_prices, &priced);
  std::vector<PossibleWorldsWorkspace> workspaces;
  return MonteCarloExpectedRevenueWithCI(graph, priced, options, pool,
                                         &workspaces);
}

const char* OracleModeName(OracleMode mode) {
  switch (mode) {
    case OracleMode::kExactPerGrid:
      return "exact_per_grid";
    case OracleMode::kExactUniform:
      return "exact_uniform";
    case OracleMode::kMcUniform:
      return "mc_uniform";
  }
  return "unknown";
}

Result<PeriodRegret> EvaluatePeriodRegret(
    const MarketSnapshot& snapshot, const DemandOracle& truth,
    const PriceLadder& ladder, const std::vector<double>& posted_prices,
    const RegretOptions& options) {
  const int num_grids = snapshot.num_grids();
  if (static_cast<int>(posted_prices.size()) != num_grids) {
    return Status::InvalidArgument(
        "posted_prices has " + std::to_string(posted_prices.size()) +
        " entries for " + std::to_string(num_grids) + " grids");
  }
  if (truth.num_grids() != num_grids) {
    return Status::InvalidArgument("demand oracle grid count mismatch");
  }

  PeriodRegret report;
  const int num_tasks = static_cast<int>(snapshot.tasks().size());
  if (num_tasks == 0) {
    // Nothing to price: both sides are exactly zero.
    report.exact = true;
    report.oracle_prices.assign(num_grids, ladder.p_min());
    return report;
  }

  int busy_grids = 0;
  for (int g = 0; g < num_grids; ++g) {
    if (!snapshot.TasksInGrid(g).empty()) ++busy_grids;
  }
  const double combos = std::pow(static_cast<double>(ladder.size()),
                                 static_cast<double>(busy_grids));
  const bool exact_tasks = num_tasks <= options.max_exact_tasks;

  const BipartiteGraph& graph = snapshot.graph();
  std::vector<PricedTask> priced;
  std::vector<PossibleWorldsWorkspace> workspaces;

  // Scores one full price vector under the regime the instance size allows.
  const auto score = [&](const std::vector<double>& prices) -> McCiEstimate {
    BuildPricedTasks(snapshot, truth, prices, &priced);
    if (exact_tasks) {
      McCiEstimate e;
      e.mean = ExactExpectedRevenue(graph, priced, options.pool, &workspaces);
      e.converged = true;
      return e;
    }
    return MonteCarloExpectedRevenueWithCI(graph, priced, options.mc,
                                           options.pool, &workspaces);
  };

  // Strategy side.
  const McCiEstimate posted = score(posted_prices);
  report.posted_value = posted.mean;
  report.posted_half_width = posted.half_width;
  report.mc_worlds += posted.worlds;

  // Oracle side.
  if (exact_tasks && combos <= options.max_exact_combinations) {
    report.oracle_mode = OracleMode::kExactPerGrid;
    MAPS_ASSIGN_OR_RETURN(OracleSearchResult best,
                          OracleSearch(snapshot, truth, ladder, options.pool));
    report.oracle_value = best.expected_revenue;
    report.oracle_prices = std::move(best.grid_prices);
  } else {
    report.oracle_mode =
        exact_tasks ? OracleMode::kExactUniform : OracleMode::kMcUniform;
    // Best single ladder price posted uniformly: |ladder| candidates, each
    // scored like the strategy side. Ties keep the lowest rung.
    std::vector<double> candidate(num_grids);
    double best_value = -1.0;
    for (int rung = 0; rung < ladder.size(); ++rung) {
      std::fill(candidate.begin(), candidate.end(), ladder.price(rung));
      const McCiEstimate e = score(candidate);
      report.mc_worlds += e.worlds;
      if (e.mean > best_value) {
        best_value = e.mean;
        report.oracle_value = e.mean;
        report.oracle_half_width = e.half_width;
        report.oracle_prices = candidate;
      }
    }
  }

  report.exact = exact_tasks;
  report.regret = report.oracle_value - report.posted_value;
  return report;
}

}  // namespace maps
