// OracleSearch: brute-force optimal grid pricing for TINY instances.
//
// Enumerates every assignment of ladder prices to the non-empty grids and
// scores each by exact possible-world expected revenue (Definition 6) using
// the TRUE acceptance ratios. Exponential in both the number of non-empty
// grids and the number of tasks — strictly a ground-truth generator for the
// approximation-ratio tests (Theorem 8's (1 - 1/e) bound).

#pragma once

#include <vector>

#include "market/demand_oracle.h"
#include "market/market_state.h"
#include "stats/price_ladder.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace maps {

/// \brief Optimal prices and their exact expected revenue.
struct OracleSearchResult {
  std::vector<double> grid_prices;
  double expected_revenue = 0.0;
};

/// \brief Exhaustive search over ladder price assignments.
/// \pre at most 25 tasks; at most ~1e6 price combinations.
Result<OracleSearchResult> OracleSearch(const MarketSnapshot& snapshot,
                                        const DemandOracle& truth,
                                        const PriceLadder& ladder);

/// \brief Pool-backed exhaustive search. The price-combination odometer is
/// sharded into a FIXED number of contiguous linear-index ranges (a
/// function of the combination count only), each worker sweeps its ranges
/// with a private PossibleWorldsWorkspace + priced scratch, and the global
/// argmax is reduced in shard order with ties broken by the LOWEST
/// combination index. Every combination's value is computed exactly as in
/// the serial sweep, so the result — prices and revenue — is bit-identical
/// to the serial overload and to itself under any thread count. Every
/// combination reads the snapshot's graph; no graph is built. `pool ==
/// nullptr` runs the same sharded sweep inline.
Result<OracleSearchResult> OracleSearch(const MarketSnapshot& snapshot,
                                        const DemandOracle& truth,
                                        const PriceLadder& ladder,
                                        ThreadPool* pool);

/// \brief Exact expected revenue of a specific price assignment under the
/// true acceptance ratios (helper shared with tests).
double ExpectedRevenueOfPrices(const MarketSnapshot& snapshot,
                               const DemandOracle& truth,
                               const std::vector<double>& grid_prices);

}  // namespace maps
