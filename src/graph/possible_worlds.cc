#include "graph/possible_worlds.h"

#include <algorithm>
#include <numeric>

#include "rng/counter_rng.h"
#include "util/logging.h"

namespace maps {

namespace {

/// Precomputes the world-independent parts: per-task value d_r * p_r and
/// the greedy processing order (value descending, index ascending). A
/// world's revenue is then one pass over `order` skipping rejected tasks —
/// identical to sorting that world's weights, since rejection preserves the
/// relative order of the surviving tasks.
void PrepareWorkspace(const std::vector<PricedTask>& tasks,
                      PossibleWorldsWorkspace* ws) {
  const size_t n = tasks.size();
  ws->accepted.assign(n, 0);
  ws->value.resize(n);
  for (size_t i = 0; i < n; ++i) {
    ws->value[i] = tasks[i].distance * tasks[i].price;
  }
  ws->order.resize(n);
  std::iota(ws->order.begin(), ws->order.end(), 0);
  std::sort(ws->order.begin(), ws->order.end(), [&](int a, int b) {
    if (ws->value[a] != ws->value[b]) return ws->value[a] > ws->value[b];
    return a < b;
  });
}

// NOTE: this is the same greedy transversal-matroid discipline as
// MaxWeightTaskMatching (value-descending order, augmentability as the
// independence oracle); the possible_worlds test suite cross-validates the
// two against the Hungarian algorithm so they cannot silently diverge.
double WorldRevenue(const BipartiteGraph& graph,
                    PossibleWorldsWorkspace* ws) {
  ws->inc.Reset(&graph);
  double total = 0.0;
  for (int l : ws->order) {
    if (!ws->accepted[l]) continue;  // rejected: excluded from the world
    if (ws->inc.TryAugment(l)) total += ws->value[l];
  }
  return total;
}

/// Sums prob(world) * revenue(world) over the contiguous mask range
/// [begin, end). Shared by the serial overloads (one range covering the
/// whole space) and the pool-backed one (fixed shards), so both evaluate
/// every world identically.
double SumWorldsInRange(const BipartiteGraph& graph,
                        const std::vector<PricedTask>& tasks, int64_t begin,
                        int64_t end, PossibleWorldsWorkspace* ws) {
  const int n = static_cast<int>(tasks.size());
  double expectation = 0.0;
  for (int64_t mask = begin; mask < end; ++mask) {
    double prob = 1.0;
    for (int i = 0; i < n; ++i) {
      ws->accepted[i] = static_cast<char>((mask >> i) & 1);
      prob *= ws->accepted[i] ? tasks[i].accept_prob
                              : 1.0 - tasks[i].accept_prob;
    }
    if (prob == 0.0) continue;
    expectation += prob * WorldRevenue(graph, ws);
  }
  return expectation;
}

/// Fixed shard cap for the pool-backed enumeration. A constant (never the
/// thread count) so partial-sum boundaries — and therefore the rounding of
/// the final sum — are identical no matter how many workers execute them.
constexpr int64_t kExactRevenueShards = 64;

/// Fixed shard cap for the Monte-Carlo estimator; same determinism rule as
/// kExactRevenueShards.
constexpr int64_t kMonteCarloShards = 64;

}  // namespace

double ExactExpectedRevenue(const BipartiteGraph& graph,
                            const std::vector<PricedTask>& tasks,
                            PossibleWorldsWorkspace* ws) {
  const int n = static_cast<int>(tasks.size());
  MAPS_CHECK_EQ(n, graph.num_left());
  MAPS_CHECK_LE(n, 25) << "possible-world enumeration is 2^n";
  PrepareWorkspace(tasks, ws);
  return SumWorldsInRange(graph, tasks, 0, int64_t{1} << n, ws);
}

double ExactExpectedRevenue(const BipartiteGraph& graph,
                            const std::vector<PricedTask>& tasks,
                            ThreadPool* pool,
                            std::vector<PossibleWorldsWorkspace>* workspaces) {
  const int n = static_cast<int>(tasks.size());
  MAPS_CHECK_EQ(n, graph.num_left());
  MAPS_CHECK_LE(n, 25) << "possible-world enumeration is 2^n";
  const int num_workers = pool == nullptr ? 1 : pool->num_threads();
  workspaces->resize(num_workers);
  for (auto& ws : *workspaces) PrepareWorkspace(tasks, &ws);
  const auto shards = SplitRange(int64_t{1} << n, kExactRevenueShards);
  return ParallelReduce<double>(
      pool, shards, 0.0,
      [&](int /*shard*/, const IndexRange& range, int worker) {
        return SumWorldsInRange(graph, tasks, range.begin, range.end,
                                &(*workspaces)[worker]);
      },
      [](double acc, double partial) { return acc + partial; });
}

double ExactExpectedRevenue(const BipartiteGraph& graph,
                            const std::vector<PricedTask>& tasks) {
  PossibleWorldsWorkspace ws;
  return ExactExpectedRevenue(graph, tasks, &ws);
}

WorldMomentSums MonteCarloRevenueMoments(
    const BipartiteGraph& graph, const std::vector<PricedTask>& tasks,
    uint64_t seed, int64_t first_world, int64_t num_worlds, ThreadPool* pool,
    std::vector<PossibleWorldsWorkspace>* workspaces) {
  MAPS_CHECK_GT(num_worlds, 0);
  MAPS_CHECK_GE(first_world, 0);
  const int n = static_cast<int>(tasks.size());
  MAPS_CHECK_EQ(n, graph.num_left());
  const int num_workers = pool == nullptr ? 1 : pool->num_threads();
  workspaces->resize(num_workers);
  for (auto& ws : *workspaces) PrepareWorkspace(tasks, &ws);
  // Shard layout depends on num_worlds only; `first_world` merely offsets
  // the ranges, so a batch's boundaries never depend on earlier batches.
  const auto shards = SplitRange(num_worlds, kMonteCarloShards);
  return ParallelReduce<WorldMomentSums>(
      pool, shards, WorldMomentSums{},
      [&](int /*shard*/, const IndexRange& range, int worker) {
        PossibleWorldsWorkspace* ws = &(*workspaces)[worker];
        WorldMomentSums m;
        for (int64_t s = range.begin; s < range.end; ++s) {
          const uint64_t world = static_cast<uint64_t>(first_world + s);
          CounterRng rng(seed, world);
          for (int i = 0; i < n; ++i) {
            ws->accepted[i] =
                static_cast<char>(rng.NextBernoulli(tasks[i].accept_prob));
          }
          const double revenue = WorldRevenue(graph, ws);
          m.sum += revenue;
          m.sum_squares += revenue * revenue;
        }
        return m;
      },
      [](WorldMomentSums acc, WorldMomentSums partial) {
        acc.sum += partial.sum;
        acc.sum_squares += partial.sum_squares;
        return acc;
      });
}

double MonteCarloExpectedRevenue(
    const BipartiteGraph& graph, const std::vector<PricedTask>& tasks,
    uint64_t seed, int samples, ThreadPool* pool,
    std::vector<PossibleWorldsWorkspace>* workspaces) {
  return MonteCarloRevenueMoments(graph, tasks, seed, 0, samples, pool,
                                  workspaces)
             .sum /
         samples;
}

}  // namespace maps
