// Exact expected total revenue via possible-world enumeration (Def. 5-6).
//
// Each requester independently accepts their offered price with probability
// S_g(p_r); a possible world is an acceptance subset, its revenue the
// maximum-weight matching over accepted tasks, and the expectation the
// probability-weighted sum over all 2^|R| worlds (Fig. 2 of the paper).
// Exponential, so usable only on small instances — it is the ground truth
// the pricing strategies are validated against.
//
// Per-world work is allocation-free: task values d_r * p_r and their greedy
// order are world-independent, so both are computed once per task set and a
// pooled workspace carries the acceptance/matching scratch across worlds.

#pragma once

#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/incremental_matching.h"
#include "util/thread_pool.h"

namespace maps {

/// \brief A task with its offered price and acceptance probability.
struct PricedTask {
  double distance = 0.0;     ///< d_r
  double price = 0.0;        ///< p_r (unit price)
  double accept_prob = 0.0;  ///< S_g(p_r)
};

/// \brief Scratch reused across worlds (and across whole evaluations when
/// the caller keeps it alive, e.g. OracleSearch's odometer loop).
struct PossibleWorldsWorkspace {
  std::vector<char> accepted;   ///< acceptance vector of the current world
  std::vector<double> value;    ///< d_r * p_r per task
  std::vector<int> order;       ///< task indices, value-descending
  IncrementalMatching inc;      ///< per-world greedy matching state

  /// Live bytes of the pooled buffers, matching state included (memory
  /// accounting for the benches).
  size_t FootprintBytes() const {
    return accepted.capacity() * sizeof(char) +
           value.capacity() * sizeof(double) +
           order.capacity() * sizeof(int) + inc.FootprintBytes();
  }
};

/// \brief Exact E[U(B^t)] by enumerating all 2^n acceptance subsets.
/// \pre tasks.size() <= 25 (hard check; beyond that use Monte Carlo).
double ExactExpectedRevenue(const BipartiteGraph& graph,
                            const std::vector<PricedTask>& tasks);

/// \brief As above, reusing `ws` buffers across calls.
double ExactExpectedRevenue(const BipartiteGraph& graph,
                            const std::vector<PricedTask>& tasks,
                            PossibleWorldsWorkspace* ws);

/// \brief Pool-backed enumeration: the 2^n mask space is split into a FIXED
/// number of contiguous shards (a function of n only), each shard sums its
/// worlds in mask order on one worker, and partials are added in shard
/// order — so the result is bit-identical for ANY thread count (1, 2, 8,
/// ...), though it may differ from the single-accumulator serial overloads
/// by floating-point association at shard boundaries.
///
/// `workspaces` follows the PR 1 pooling contract across invocations: it is
/// resized to the pool's worker count and each worker touches only its own
/// entry; capacities persist so steady-state calls allocate nothing.
double ExactExpectedRevenue(const BipartiteGraph& graph,
                            const std::vector<PricedTask>& tasks,
                            ThreadPool* pool,
                            std::vector<PossibleWorldsWorkspace>* workspaces);

/// \brief Monte-Carlo estimate of E[U(B^t)] from `samples` sampled worlds:
/// MonteCarloRevenueMoments(graph, tasks, seed, 0, samples, ...).sum /
/// samples. World s in [0, samples) draws its acceptance vector from
/// CounterRng stream (seed, s) — a pure function of the world index, never
/// of which worker ran it or how many worlds ran before it — so the
/// estimate is bit-identical for ANY thread count (1, 2, 8, ...), including
/// `pool == nullptr`.
///
/// `workspaces` follows the PR 1 pooling contract: resized to the pool's
/// worker count, each worker touches only its own entry, capacities persist
/// across invocations.
double MonteCarloExpectedRevenue(const BipartiteGraph& graph,
                                 const std::vector<PricedTask>& tasks,
                                 uint64_t seed, int samples, ThreadPool* pool,
                                 std::vector<PossibleWorldsWorkspace>* workspaces);

/// \brief First two power sums of sampled world revenues — the raw material
/// of a confidence interval (mean = sum / n, variance from sum_squares).
struct WorldMomentSums {
  double sum = 0.0;          ///< Σ revenue(world)
  double sum_squares = 0.0;  ///< Σ revenue(world)^2
};

/// \brief Moments of worlds [first_world, first_world + num_worlds): world w
/// draws its acceptance vector from CounterRng stream (seed, w), so batches
/// taken at [0, B), [B, 2B), ... concatenate into the same world sequence a
/// single [0, n*B) call would sample. The batch is split into a FIXED number of
/// contiguous shards (a function of num_worlds only) whose partial
/// (sum, sum_squares) pairs fold in shard order — bit-identical for ANY
/// thread count, including `pool == nullptr`. This is the primitive behind
/// the CI stopping rule in pricing/oracle_exact.h.
WorldMomentSums MonteCarloRevenueMoments(
    const BipartiteGraph& graph, const std::vector<PricedTask>& tasks,
    uint64_t seed, int64_t first_world, int64_t num_worlds, ThreadPool* pool,
    std::vector<PossibleWorldsWorkspace>* workspaces);

}  // namespace maps
