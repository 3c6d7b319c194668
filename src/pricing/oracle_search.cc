#include "pricing/oracle_search.h"

#include <cmath>
#include <cstdint>
#include <limits>

#include "graph/bipartite_graph.h"
#include "graph/possible_worlds.h"
#include "util/logging.h"

namespace maps {

namespace {

/// Scores one price assignment against a graph built once by the caller.
/// `priced` and `ws` are caller-owned scratch so the odometer loop performs
/// no per-combination allocation.
double ScorePrices(const BipartiteGraph& graph, const MarketSnapshot& snapshot,
                   const DemandOracle& truth,
                   const std::vector<double>& grid_prices,
                   std::vector<PricedTask>* priced,
                   PossibleWorldsWorkspace* ws) {
  priced->clear();
  for (const Task& t : snapshot.tasks()) {
    const double p = grid_prices[t.grid];
    priced->push_back(
        PricedTask{t.distance, p, truth.TrueAcceptRatio(t.grid, p)});
  }
  return ExactExpectedRevenue(graph, *priced, ws);
}

/// Everything one worker needs to sweep combination ranges without touching
/// shared mutable state: a full price vector, the odometer digits, and the
/// scoring scratch of PR 1's pooling contract.
struct SweepScratch {
  std::vector<double> prices;
  std::vector<int> choice;
  std::vector<PricedTask> priced;
  PossibleWorldsWorkspace ws;
};

/// One shard's local optimum: best value and the linear combination index
/// that attained it first (= lowest index, since sweeps walk ascending).
struct SweepBest {
  double value = -1.0;
  int64_t combo = std::numeric_limits<int64_t>::max();
};

/// Decodes linear combination index `combo` into odometer digits: digit i
/// (the rung of busy grid i) has weight ladder_size^i, matching the classic
/// odometer that increments digit 0 fastest.
void DecodeCombo(int64_t combo, int ladder_size, std::vector<int>* choice) {
  for (size_t i = 0; i < choice->size(); ++i) {
    (*choice)[i] = static_cast<int>(combo % ladder_size);
    combo /= ladder_size;
  }
}

/// Sweeps combinations [begin, end) in ascending linear-index order.
/// Identical evaluation per combination regardless of sharding, so the
/// serial sweep is literally the one-shard case.
SweepBest SweepRange(const BipartiteGraph& graph,
                     const MarketSnapshot& snapshot, const DemandOracle& truth,
                     const PriceLadder& ladder,
                     const std::vector<int>& busy_grids, int64_t begin,
                     int64_t end, SweepScratch* scratch) {
  scratch->prices.assign(snapshot.num_grids(), ladder.p_min());
  scratch->choice.resize(busy_grids.size());
  DecodeCombo(begin, ladder.size(), &scratch->choice);
  SweepBest best;
  for (int64_t combo = begin; combo < end; ++combo) {
    for (size_t i = 0; i < busy_grids.size(); ++i) {
      scratch->prices[busy_grids[i]] = ladder.price(scratch->choice[i]);
    }
    const double value = ScorePrices(graph, snapshot, truth, scratch->prices,
                                     &scratch->priced, &scratch->ws);
    // Strict '>' keeps the first (lowest-index) maximum, the global
    // tie-break rule of the ordered reduction.
    if (value > best.value) {
      best.value = value;
      best.combo = combo;
    }
    // Odometer increment (digit 0 fastest).
    for (size_t pos = 0; pos < scratch->choice.size(); ++pos) {
      if (++scratch->choice[pos] < ladder.size()) break;
      scratch->choice[pos] = 0;
    }
  }
  return best;
}

/// Fixed shard cap for the combination sweep: a constant (never the thread
/// count), so shard boundaries — and the per-shard argmax partials — are
/// the same whether 1 or 8 workers execute them.
constexpr int64_t kOracleSweepShards = 64;

}  // namespace

double ExpectedRevenueOfPrices(const MarketSnapshot& snapshot,
                               const DemandOracle& truth,
                               const std::vector<double>& grid_prices) {
  const BipartiteGraph& graph = snapshot.graph();
  std::vector<PricedTask> priced;
  priced.reserve(snapshot.tasks().size());
  PossibleWorldsWorkspace ws;
  return ScorePrices(graph, snapshot, truth, grid_prices, &priced, &ws);
}

Result<OracleSearchResult> OracleSearch(const MarketSnapshot& snapshot,
                                        const DemandOracle& truth,
                                        const PriceLadder& ladder) {
  return OracleSearch(snapshot, truth, ladder, /*pool=*/nullptr);
}

Result<OracleSearchResult> OracleSearch(const MarketSnapshot& snapshot,
                                        const DemandOracle& truth,
                                        const PriceLadder& ladder,
                                        ThreadPool* pool) {
  if (snapshot.tasks().size() > 25) {
    return Status::InvalidArgument("too many tasks for exact enumeration");
  }
  std::vector<int> busy_grids;
  for (int g = 0; g < snapshot.num_grids(); ++g) {
    if (!snapshot.TasksInGrid(g).empty()) busy_grids.push_back(g);
  }
  const double combos =
      std::pow(static_cast<double>(ladder.size()),
               static_cast<double>(busy_grids.size()));
  if (combos > 2e6) {
    return Status::InvalidArgument("price combination space too large");
  }
  int64_t total = 1;
  for (size_t i = 0; i < busy_grids.size(); ++i) total *= ladder.size();

  // The graph depends only on geometry, never on prices: the snapshot's
  // one graph serves the whole odometer sweep.
  const BipartiteGraph& graph = snapshot.graph();

  const int num_workers = pool == nullptr ? 1 : pool->num_threads();
  std::vector<SweepScratch> scratch(num_workers);
  for (auto& s : scratch) {
    s.priced.reserve(snapshot.tasks().size());
  }

  const auto shards = SplitRange(total, kOracleSweepShards);
  const SweepBest best = ParallelReduce<SweepBest>(
      pool, shards, SweepBest{},
      [&](int /*shard*/, const IndexRange& range, int worker) {
        return SweepRange(graph, snapshot, truth, ladder, busy_grids,
                          range.begin, range.end, &scratch[worker]);
      },
      [](SweepBest acc, SweepBest partial) {
        // Deterministic argmax: larger value wins; equal values keep the
        // lower combination index (partials arrive in shard order, but this
        // rule makes the reduction order-independent too).
        if (partial.value > acc.value ||
            (partial.value == acc.value && partial.combo < acc.combo)) {
          return partial;
        }
        return acc;
      });

  OracleSearchResult result;
  result.grid_prices.assign(snapshot.num_grids(), ladder.p_min());
  result.expected_revenue = best.value;
  std::vector<int> choice(busy_grids.size());
  DecodeCombo(best.combo, ladder.size(), &choice);
  for (size_t i = 0; i < busy_grids.size(); ++i) {
    result.grid_prices[busy_grids[i]] = ladder.price(choice[i]);
  }
  return result;
}

}  // namespace maps
