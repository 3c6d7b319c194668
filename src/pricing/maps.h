// MAPS: MAtching-based Pricing Strategy (Sec. 4, Algorithms 2-3).
//
// Per period, MAPS (i) reads the task x worker bipartite graph under the
// range constraints (built once by the MarketSnapshot), (ii) greedily
// distributes the dependent supply: a max-heap over grids repeatedly
// admits the single worker addition with the
// largest increase Delta^g in the approximate expected revenue
//     L^g(n, p) = min( sum_r d_r * p * S_g(p),  sum_{i<=n} d_{r_i} * p ),
// verifying feasibility through augmenting paths in a pre-matching M', and
// (iii) prices each grid at the UCB-index maximizer of Algorithm 3 for its
// final supply level. Acceptance ratios are learned online with UCB and
// guarded by a binomial change detector.
//
// The matching core is allocation-free in steady state: the pre-matching,
// the heap, and every per-grid scratch vector are pooled
// across rounds, and each heap pop performs at most one alternating-tree
// walk (the probe records the augmenting path; the later admission
// revalidates and applies it in O(path) instead of searching again).
//
// Within a round the UCB state is frozen, so each grid's per-rung
// optimistic values are a round constant. PriceRound therefore precomputes
// them once per round — sharded over a lent ThreadPool under the DESIGN.md
// §8 fixed-shard policy — and evaluates Algorithm 3 incrementally: because
// the supply ratio is non-decreasing in n, a monotone rung pointer replaces
// the per-pop ladder scan (see DESIGN.md §10). Results are bit-identical to
// the reference scan, including the tie rule (larger price on equal index).

#pragma once

#include <memory>
#include <vector>

#include "graph/incremental_matching.h"
#include "pricing/base_pricing.h"
#include "pricing/strategy.h"
#include "stats/change_detector.h"
#include "stats/price_ladder.h"
#include "stats/ucb.h"

namespace maps {

/// \brief MAPS tuning knobs.
struct MapsOptions {
  PricingConfig pricing;

  /// How Delta^g is computed when a grid contemplates one more worker.
  enum class DeltaMode {
    /// Increase of the L^g estimate itself (what Theorem 8's submodularity
    /// argument needs); the default.
    kExpectedRevenueGain,
    /// The literal return of Algorithm 3's listing:
    /// p_new*S_hat(p_new) - p_old*S_hat(p_old).
    kPaperLiteral,
  };
  DeltaMode delta_mode = DeltaMode::kExpectedRevenueGain;

  /// How the per-grid expected revenue is approximated (Eq. (1) vs the
  /// alternative the paper's appendix C.6 proposes and "leaves to future
  /// work").
  enum class SupplyApprox {
    /// Eq. (1): L = min( sum_r d_r p S(p), sum_{i<=n} d_{r_i} p ).
    kMinOfCurves,
    /// Appendix C.6: L = sum_{i=1}^{min(ceil(|R^{tg}| S(p)), n)}
    /// d_{r_i} p S(p) — expected accepted demand truncated by the supply.
    kTruncatedExpectation,
  };
  SupplyApprox supply_approx = SupplyApprox::kMinOfCurves;

  /// Run Algorithm 1 during Warmup to obtain p_b and warm-start the UCB
  /// tables from its probes (the paper feeds p_b into Algorithm 2).
  bool warm_start_from_base = true;

  /// Binomial change detection (Sec. 4.2.2); a flagged change re-seeds the
  /// flagged rung's UCB statistics from the most recent window.
  bool use_change_detector = true;
  /// Observations per detector window (the paper's m, unspecified there).
  /// Larger windows trade detection latency for fewer false flags on
  /// stationary demand.
  int change_window = 200;

  /// Evaluate Algorithm 3 through the round-scoped maximizer engine
  /// (precomputed per-rung optimistic values + monotone-pointer envelope;
  /// see DESIGN.md §10). Only applies under kMinOfCurves — the truncated-
  /// expectation variant always uses the reference scan. The engine is
  /// bit-identical to the scan; `false` keeps the reference scan for A/B
  /// verification and debugging.
  bool use_maximizer_engine = true;
};

/// \brief The MAPS pricing strategy.
class Maps : public PricingStrategy {
 public:
  explicit Maps(const MapsOptions& options);

  std::string name() const override { return "MAPS"; }

  Status Warmup(const GridPartition& grid, DemandOracle* history) override;

  /// The lent pool backs the warm-up probe schedule (via BasePricing) and
  /// PriceRound's per-round maximizer precompute. Both shard per DESIGN.md
  /// §8/§10, so results are bit-identical with or without a pool. The heap
  /// admission itself stays sequential by construction.
  void LendPool(ThreadPool* pool) override {
    pool_ = pool;
    base_.LendPool(pool);
  }

  Status PriceRound(const MarketSnapshot& snapshot,
                    std::vector<double>* grid_prices) override;

  void ObserveFeedback(const MarketSnapshot& snapshot,
                       const std::vector<double>& grid_prices,
                       const std::vector<bool>& accepted) override;

  size_t MemoryFootprintBytes() const override;

  /// Learned state: nested BaseP warm-up, per-grid UCB tables, per-rung
  /// change detectors, and reset counters. Round scratch (pre-matching,
  /// heap, maximizer engine) is rebuilt every PriceRound and not serialized.
  /// LoadState commits all-or-nothing.
  Status SaveState(StateWriter* w) const override;
  Status LoadState(StateReader* r) override;

  double base_price() const { return base_.base_price(); }
  const PriceLadder& ladder() const { return ladder_; }
  const MapsOptions& options() const { return options_; }

  /// Supply levels n^{tg} chosen in the most recent PriceRound.
  const std::vector<int>& last_supply() const { return last_supply_; }

  /// Delta^g sequences admitted per grid in the most recent PriceRound
  /// (exposed for the Lemma 9 monotonicity tests).
  const std::vector<std::vector<double>>& last_delta_trace() const {
    return last_delta_trace_;
  }

  /// Number of UCB resets triggered by the change detector so far.
  int64_t change_resets() const { return change_resets_; }

  /// Total UCB observations recorded for grid `g` (diagnostic/test hook:
  /// guards the grid-count-change reset policy).
  int64_t UcbObservations(int g) const;

  /// Times a grid-count change forced a full learned-state reset. Stable
  /// grid counts must keep this at zero; every increment is also logged.
  int64_t grid_state_resets() const { return grid_state_resets_; }

  /// Peak bytes of the per-round transient structures (pre-matching + heap
  /// + maximizer engine). The bipartite graph belongs to the snapshot and
  /// is counted there. Reported separately from
  /// MemoryFootprintBytes() because they are pooled round-scratch, not
  /// learned state; the ablation bench surfaces them, and a regression
  /// test asserts the value stabilizes after the first rounds (pooling
  /// regressions show up as unbounded growth).
  size_t peak_round_bytes() const { return peak_round_bytes_; }

 private:
  struct Maximizer {
    double price = 0.0;
    double l_value = 0.0;      // L-hat at (n, price), absolute units
    double unit_revenue = 0.0; // p * S_hat(p) at the chosen price
    /// Supply-unconstrained ceiling of the index, max_p min(opt(p), p):
    /// since ratio <= 1, no supply level can push L-hat above
    /// total_dist * ceiling. Used to detect plateaus of the discretized
    /// index (see PriceRound).
    double ceiling = 0.0;
  };

  /// One max-heap tuple ((g, n_new, p_new), Delta^g) of Algorithm 2.
  struct HeapEntry {
    double delta = 0.0;
    int grid = -1;
    int n_new = 0;
    double p_new = 0.0;
    double l_new = 0.0;
    double unit_new = 0.0;
    uint64_t seq = 0;  // FIFO tie-break for determinism
  };

  /// Per-grid cursor of the incremental Algorithm-3 evaluation. Rungs above
  /// `front` are proven saturated (their optimistic value caps the index);
  /// `sat_idx/sat_key` is the champion among them. Both only move monotonely
  /// within a round because the supply ratio is non-decreasing in n.
  struct EngineCursor {
    int front = 0;
    int sat_idx = -1;
    double sat_key = -1.0;
  };

  /// Algorithm 3, reference implementation: full descending ladder scan.
  /// \param dist_prefix prefix sums of the grid's descending task
  ///                    distances (dist_prefix[k] = sum of top k)
  /// \param total_dist  C' = sum of all distances (== dist_prefix.back())
  /// \param n           contemplated supply level (1 <= n < |dist_prefix|)
  Maximizer CalcMaximizer(int g, const std::vector<double>& dist_prefix,
                          double total_dist, int n) const;

  /// Algorithm 3 through the round engine: advances grid g's monotone rung
  /// pointer to the supply ratio at n and reads the envelope maximum.
  /// Bit-identical to CalcMaximizer under kMinOfCurves (see DESIGN.md §10).
  Maximizer EvalMaximizerEngine(int g, const std::vector<double>& dist_prefix,
                                double total_dist, int n);

  /// Fills the round-frozen engine tables (per-rung optimistic values,
  /// p * mean, per-grid ceiling) and resets every cursor; sharded over the
  /// lent pool with per-grid disjoint writes.
  void PrecomputeRoundEngine(int num_grids);

  /// Resets the pooled per-round scratch (supplies, traces, recorded
  /// paths, price/L cursors, heap) for `num_grids` grids at base price
  /// `p_b`. Contents are dead between rounds; capacity is retained so
  /// steady-state rounds allocate nothing.
  void ResetRoundScratch(int num_grids, double p_b);

  void EnsureGridState(int num_grids);

  /// Max-heap ordering on Delta with FIFO tie-break (determinism).
  static bool HeapBefore(const HeapEntry& a, const HeapEntry& b) {
    if (a.delta != b.delta) return a.delta < b.delta;
    return a.seq > b.seq;
  }
  void PushHeap(const HeapEntry& entry);
  HeapEntry PopHeap();

  MapsOptions options_;
  PriceLadder ladder_;
  BasePricing base_;
  bool warmed_up_ = false;
  ThreadPool* pool_ = nullptr;  // non-owning; see LendPool

  std::vector<UcbEstimator> ucb_;                  // per grid
  std::vector<std::vector<ChangeDetector>> change_;  // per grid x rung

  std::vector<int> last_supply_;
  std::vector<std::vector<double>> last_delta_trace_;
  int64_t change_resets_ = 0;
  int64_t grid_state_resets_ = 0;
  size_t peak_round_bytes_ = 0;

  // Pooled round scratch (contents are dead between rounds; capacity is
  // retained so steady-state rounds allocate nothing).
  IncrementalMatching pre_matching_;
  std::vector<RecordedPath> pending_path_;  // per grid: next growth step
  std::vector<HeapEntry> heap_;
  std::vector<double> cur_price_;
  std::vector<double> cur_l_;
  std::vector<double> cur_unit_;
  std::vector<char> finalized_;

  // Round-scoped maximizer engine tables (flat [grid * ladder + rung]).
  bool engine_active_ = false;
  std::vector<double> engine_opt_;    // OptimisticUnitRevenue per rung
  std::vector<double> engine_punit_;  // price * mean per rung
  std::vector<double> engine_ceiling_;  // per grid: max_i min(opt_i, p_i)
  std::vector<EngineCursor> engine_cursor_;  // per grid

  // ObserveFeedback scratch: one snapped rung index per grid (the posted
  // price is per-grid, so snapping per task re-derived the same value
  // |tasks-in-grid| times).
  std::vector<int> feedback_rung_;
};

}  // namespace maps
