#include "pricing/maps.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace maps {

namespace {

constexpr double kInfDelta = std::numeric_limits<double>::infinity();
// Increases at or below this are "zero" (finalize the grid).
constexpr double kDeltaEps = 1e-12;
// Priority scale for plateau growth (see PriceRound): small enough that a
// plateau step always ranks below any real revenue increase.
constexpr double kPlateauPriority = 1e-9;
// Shard cap for the per-round engine precompute: a constant of the
// consumer, never the thread count (DESIGN.md §8).
constexpr int64_t kEnginePrecomputeShards = 64;

}  // namespace

Maps::Maps(const MapsOptions& options)
    : options_(options),
      ladder_(MakeLadderFromConfig(options.pricing).ValueOrDie()),
      base_(options.pricing) {}

void Maps::EnsureGridState(int num_grids) {
  const int current = static_cast<int>(ucb_.size());
  if (current == num_grids) return;
  if (current > 0) {
    // A different grid count means a different partition of the region, so
    // grid indices no longer denote the same geographic cells — carrying
    // statistics over by index would silently price cells from another
    // area's learned demand. Reset everything, but never silently: this
    // discards all learned UCB/change-detector state.
    MAPS_LOG(Warning) << "MAPS grid count changed from " << current << " to "
                      << num_grids
                      << "; resetting all learned UCB/change-detector state"
                      << " (cell indices changed meaning)";
    ++grid_state_resets_;
  }
  ucb_.clear();
  change_.clear();
  ucb_.reserve(num_grids);
  change_.reserve(num_grids);
  for (int g = 0; g < num_grids; ++g) {
    ucb_.emplace_back(&ladder_);
    std::vector<ChangeDetector> row;
    row.reserve(ladder_.size());
    for (int i = 0; i < ladder_.size(); ++i) {
      row.emplace_back(options_.change_window);
    }
    change_.push_back(std::move(row));
  }
}

int64_t Maps::UcbObservations(int g) const {
  MAPS_CHECK(g >= 0 && g < static_cast<int>(ucb_.size()));
  return ucb_[g].total_observations();
}

Status Maps::Warmup(const GridPartition& grid, DemandOracle* history) {
  EnsureGridState(grid.num_cells());
  if (options_.warm_start_from_base) {
    MAPS_RETURN_NOT_OK(base_.Warmup(grid, history));
    // Seed the UCB tables with Algorithm 1's probe statistics so online
    // pricing starts from the same demand knowledge the base price has.
    const auto& ratios = base_.observed_accept_ratios();
    const auto& probes = base_.probes_per_rung();
    for (int g = 0; g < grid.num_cells(); ++g) {
      for (int i = 0; i < ladder_.size(); ++i) {
        const int64_t trials = probes[i];
        const int64_t accepts = static_cast<int64_t>(
            std::llround(ratios[g][i] * static_cast<double>(trials)));
        ucb_[g].ObserveBulk(i, trials, accepts);
      }
    }
  }
  warmed_up_ = true;
  return Status::OK();
}

Maps::Maximizer Maps::CalcMaximizer(int g,
                                    const std::vector<double>& dist_prefix,
                                    double total_dist, int n) const {
  MAPS_DCHECK_GT(total_dist, 0.0);
  MAPS_DCHECK(n >= 1 && n < static_cast<int>(dist_prefix.size()));

  if (options_.supply_approx == MapsOptions::SupplyApprox::kMinOfCurves) {
    const double topn_dist = dist_prefix[n];
    const double ratio = std::min(topn_dist / total_dist, 1.0);
    Maximizer best;
    double best_index = -1.0;
    // Algorithm 3 iterates prices from large to small with a strict '<'
    // improvement test, so ties keep the larger price.
    for (int i = ladder_.size() - 1; i >= 0; --i) {
      const double p = ladder_.price(i);
      // The paper's index, uncapped: clamping the optimistic term (e.g. at
      // p, since S <= 1) would break UCB's shift-neutrality — low rungs
      // whose optimistic value exceeds the clamp get clipped while high
      // rungs do not, biasing the argmax upward. Unexplored rungs
      // (radius = +inf) are bounded by the supply term, exactly as Eq. (1)
      // intends.
      const double optimistic = ucb_[g].OptimisticUnitRevenue(i);
      const double index = std::min(optimistic, ratio * p);
      if (index > best_index) {
        best_index = index;
        best.price = p;
        best.l_value = total_dist * index;
        best.unit_revenue = p * ucb_[g].mean(i);
      }
      best.ceiling = std::max(best.ceiling, std::min(optimistic, p));
    }
    return best;
  }

  // Appendix C.6's alternative: L = sum_{i<=k} d_{r_i} * p * S(p) with
  // k = min(ceil(|R| * S(p)), n) — the expected accepted demand truncated
  // by the allocated supply, valued at the expected unit revenue.
  const int num_tasks = static_cast<int>(dist_prefix.size()) - 1;
  Maximizer best;
  double best_value = -1.0;
  for (int i = ladder_.size() - 1; i >= 0; --i) {
    const double p = ladder_.price(i);
    // Optimistic acceptance ratio derived from the UCB index, in [0, 1].
    const double s_opt =
        std::min(ucb_[g].OptimisticUnitRevenue(i) / p, 1.0);
    const int expected_accepts =
        static_cast<int>(std::ceil(num_tasks * s_opt));
    auto value_with_supply = [&](int supply) {
      const int k = std::min(expected_accepts, supply);
      return dist_prefix[k] * p * s_opt;
    };
    const double value = value_with_supply(n);
    if (value > best_value) {
      best_value = value;
      best.price = p;
      best.l_value = value;
      best.unit_revenue = p * ucb_[g].mean(i);
    }
    // Ceiling: the value with unbounded supply (k = expected accepts).
    best.ceiling =
        std::max(best.ceiling, value_with_supply(num_tasks) / total_dist);
  }
  return best;
}

void Maps::PrecomputeRoundEngine(int num_grids) {
  const int num_rungs = ladder_.size();
  engine_opt_.resize(static_cast<size_t>(num_grids) * num_rungs);
  engine_punit_.resize(static_cast<size_t>(num_grids) * num_rungs);
  engine_ceiling_.resize(num_grids);
  engine_cursor_.resize(num_grids);
  // Writes are disjoint per grid and the UCB state is frozen for the whole
  // round, so the fill is bit-identical for any pool size (including none).
  const auto shards = SplitRange(num_grids, kEnginePrecomputeShards);
  ParallelFor(pool_, shards,
              [&](int /*shard*/, const IndexRange& range, int /*worker*/) {
                for (int64_t g = range.begin; g < range.end; ++g) {
                  double* opt = &engine_opt_[g * num_rungs];
                  double* punit = &engine_punit_[g * num_rungs];
                  double ceiling = 0.0;
                  // Descending, mirroring the reference scan's fold order.
                  for (int i = num_rungs - 1; i >= 0; --i) {
                    const double p = ladder_.price(i);
                    opt[i] = ucb_[g].OptimisticUnitRevenue(i);
                    punit[i] = p * ucb_[g].mean(i);
                    ceiling = std::max(ceiling, std::min(opt[i], p));
                  }
                  engine_ceiling_[g] = ceiling;
                  engine_cursor_[g] =
                      EngineCursor{num_rungs - 1, -1, -1.0};
                }
              });
}

Maps::Maximizer Maps::EvalMaximizerEngine(
    int g, const std::vector<double>& dist_prefix, double total_dist,
    int n) {
  MAPS_DCHECK_GT(total_dist, 0.0);
  MAPS_DCHECK(n >= 1 && n < static_cast<int>(dist_prefix.size()));
  const int num_rungs = ladder_.size();
  const double ratio = std::min(dist_prefix[n] / total_dist, 1.0);
  const double* opt = &engine_opt_[static_cast<size_t>(g) * num_rungs];
  EngineCursor& cur = engine_cursor_[g];

  // The ratio is non-decreasing in n and n is non-decreasing across a
  // grid's evaluations within a round, so rungs saturate (optimistic value
  // <= ratio * price) top-down and never desaturate: `front` only moves
  // left. A saturated rung's index is its (round-constant) optimistic
  // value; the champion among them folds in decreasing rung order, so the
  // strict '>' keeps the larger price on ties — exactly the reference
  // scan's rule.
  while (cur.front >= 0 &&
         opt[cur.front] <= ratio * ladder_.price(cur.front)) {
    if (opt[cur.front] > cur.sat_key) {
      cur.sat_key = opt[cur.front];
      cur.sat_idx = cur.front;
    }
    --cur.front;
  }

  // Unsaturated rungs all have index ratio * price, so the best of them is
  // the highest-priced one: `front` itself. Rungs below can never win
  // (smaller price, same ratio), and on exact ties the scan would keep the
  // higher rung — which is the saturated champion when both exist, since
  // every saturated rung lies above `front`.
  int best_i;
  double best_key;
  if (cur.front < 0) {
    best_i = cur.sat_idx;
    best_key = cur.sat_key;
  } else {
    const double unsat_key = ratio * ladder_.price(cur.front);
    if (cur.sat_idx >= 0 && cur.sat_key >= unsat_key) {
      best_i = cur.sat_idx;
      best_key = cur.sat_key;
    } else {
      best_i = cur.front;
      best_key = unsat_key;
    }
  }
  MAPS_DCHECK_GE(best_i, 0);

  Maximizer best;
  best.price = ladder_.price(best_i);
  best.l_value = total_dist * best_key;
  best.unit_revenue =
      engine_punit_[static_cast<size_t>(g) * num_rungs + best_i];
  best.ceiling = engine_ceiling_[g];
  return best;
}

void Maps::PushHeap(const HeapEntry& entry) {
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), &Maps::HeapBefore);
}

Maps::HeapEntry Maps::PopHeap() {
  std::pop_heap(heap_.begin(), heap_.end(), &Maps::HeapBefore);
  const HeapEntry top = heap_.back();
  heap_.pop_back();
  return top;
}

void Maps::ResetRoundScratch(int num_grids, double p_b) {
  last_supply_.assign(num_grids, 0);
  last_delta_trace_.resize(num_grids);
  for (auto& trace : last_delta_trace_) trace.clear();
  pending_path_.resize(num_grids);
  // Paths recorded last round reference last round's graph; CommitPath
  // cannot detect cross-graph staleness, so drop them (capacity retained).
  for (auto& path : pending_path_) path.clear();

  cur_price_.assign(num_grids, p_b);
  cur_l_.assign(num_grids, 0.0);
  cur_unit_.assign(num_grids, 0.0);
  finalized_.assign(num_grids, 0);
  heap_.clear();
}

Status Maps::PriceRound(const MarketSnapshot& snapshot,
                        std::vector<double>* grid_prices) {
  if (!warmed_up_) {
    return Status::FailedPrecondition("MAPS used before Warmup");
  }
  const int num_grids = snapshot.num_grids();
  EnsureGridState(num_grids);

  const double p_b =
      options_.warm_start_from_base
          ? base_.base_price()
          : ladder_.Snap(std::sqrt(ladder_.p_min() * ladder_.p_max()));

  // Line 1: the bipartite graph under the range constraints, built once per
  // period by the snapshot. Line 2: the pre-matching M'. Matching, heap,
  // and per-grid scratch are pooled members — steady-state rounds perform
  // no heap allocation.
  pre_matching_.Reset(&snapshot.graph());

  grid_prices->assign(num_grids, p_b);
  ResetRoundScratch(num_grids, p_b);

  engine_active_ =
      options_.use_maximizer_engine &&
      options_.supply_approx == MapsOptions::SupplyApprox::kMinOfCurves;
  if (engine_active_) PrecomputeRoundEngine(num_grids);

  uint64_t seq = 0;
  // Lines 3-4: one infinity-keyed tuple per grid.
  for (int g = 0; g < num_grids; ++g) {
    PushHeap(HeapEntry{kInfDelta, g, 0, p_b, 0.0, 0.0, seq++});
  }

  // Lines 5-21.
  while (!heap_.empty()) {
    const HeapEntry e = PopHeap();
    const int g = e.grid;
    const auto& grid_tasks = snapshot.TasksInGrid(g);

    if (e.delta != kInfDelta) {
      if (e.delta <= kDeltaEps) {
        // Lines 11-14: zero increase => final price, capped at p_max.
        grid_prices->at(g) = std::min(e.p_new, ladder_.p_max());
        finalized_[g] = 1;
        continue;
      }
      // Lines 9-10: admit the increase. The probe that priced this entry
      // recorded its augmenting path; if no other grid's admission touched
      // it since, applying it is O(path length). Otherwise fall back to one
      // fresh single-pass search-and-commit; only when that also fails has
      // the grid lost the ability to grow.
      bool augmented = pre_matching_.CommitPath(pending_path_[g]);
      if (!augmented) {
        augmented =
            pre_matching_.AugmentFirst(grid_tasks) != Matching::kUnmatched;
      }
      if (!augmented) {
        PushHeap(HeapEntry{0.0, g, last_supply_[g], cur_price_[g], cur_l_[g],
                           cur_unit_[g], seq++});
        continue;
      }
      last_supply_[g] = e.n_new;
      cur_price_[g] = e.p_new;
      cur_l_[g] = e.l_new;
      cur_unit_[g] = e.unit_new;
      last_delta_trace_[g].push_back(e.delta);
    }

    // Lines 16-21: attempt to grow the grid's supply by one worker. The
    // probe doubles as the admission's path search (recorded for the later
    // commit), so each pop walks the alternating tree at most once.
    if (grid_tasks.empty() ||
        pre_matching_.FindAugmentablePath(grid_tasks, &pending_path_[g]) ==
            Matching::kUnmatched) {
      PushHeap(HeapEntry{0.0, g, last_supply_[g], cur_price_[g], cur_l_[g],
                         cur_unit_[g], seq++});
      continue;
    }
    const int n_next = last_supply_[g] + 1;
    const auto& dist_prefix = snapshot.DistancePrefixSumsInGrid(g);
    MAPS_DCHECK_LT(n_next, static_cast<int>(dist_prefix.size()));
    const double total = snapshot.TotalDistanceInGrid(g);
    const Maximizer maxi =
        engine_active_ ? EvalMaximizerEngine(g, dist_prefix, total, n_next)
                       : CalcMaximizer(g, dist_prefix, total, n_next);
    double delta =
        options_.delta_mode == MapsOptions::DeltaMode::kExpectedRevenueGain
            ? maxi.l_value - cur_l_[g]
            : maxi.unit_revenue - cur_unit_[g];
    if (delta <= kDeltaEps &&
        options_.delta_mode ==
            MapsOptions::DeltaMode::kExpectedRevenueGain) {
      // Plateau handling. On the continuous revenue curve a zero increase
      // is permanent (the paper's Lemma 9 argument), but on a discrete
      // ladder max_p min(opt(p), ratio*p) can stall and then jump: a high
      // rung saturates at its opt value while a better low rung is still
      // supply-bound. If headroom to the supply-unconstrained ceiling
      // remains, keep growing this grid — at a priority far below every
      // genuine increase, so plateau growth never steals a worker from a
      // grid with real marginal revenue.
      const double headroom = total * maxi.ceiling - maxi.l_value;
      if (headroom > 1e-9 * std::max(total, 1.0)) {
        delta = kPlateauPriority * headroom;
      }
    }
    if (delta <= kDeltaEps) {
      PushHeap(HeapEntry{0.0, g, last_supply_[g], cur_price_[g], cur_l_[g],
                         cur_unit_[g], seq++});
    } else {
      PushHeap(HeapEntry{delta, g, n_next, maxi.price, maxi.l_value,
                         maxi.unit_revenue, seq++});
    }
  }

  for (int g = 0; g < num_grids; ++g) {
    MAPS_DCHECK(finalized_[g]) << "grid " << g << " never finalized";
  }

  size_t round_bytes =
      pre_matching_.FootprintBytes() + heap_.capacity() * sizeof(HeapEntry) +
      (engine_opt_.capacity() + engine_punit_.capacity() +
       engine_ceiling_.capacity()) *
          sizeof(double) +
      engine_cursor_.capacity() * sizeof(EngineCursor);
  for (const auto& path : pending_path_) {
    round_bytes += path.edges.capacity() * sizeof(std::pair<int, int>);
  }
  peak_round_bytes_ = std::max(peak_round_bytes_, round_bytes);
  return Status::OK();
}

void Maps::ObserveFeedback(const MarketSnapshot& snapshot,
                           const std::vector<double>& grid_prices,
                           const std::vector<bool>& accepted) {
  MAPS_CHECK_EQ(accepted.size(), snapshot.tasks().size());
  MAPS_CHECK_EQ(static_cast<int>(grid_prices.size()), snapshot.num_grids());
  // The posted price — and therefore the snapped rung — is per grid, so
  // resolve each grid's rung once instead of once per task.
  feedback_rung_.resize(snapshot.num_grids());
  for (int g = 0; g < snapshot.num_grids(); ++g) {
    feedback_rung_[g] = ladder_.SnapIndex(grid_prices[g]);
  }
  for (size_t i = 0; i < snapshot.tasks().size(); ++i) {
    const int g = snapshot.tasks()[i].grid;
    const int idx = feedback_rung_[g];
    ucb_[g].Observe(idx, accepted[i]);
    if (options_.use_change_detector &&
        change_[g][idx].Observe(accepted[i])) {
      // S_g(p) drifted at this price: drop the rung's history and re-seed
      // it from the detector's just-completed window, which reflects the
      // post-change rate. Two deliberate deviations from a naive reading
      // of the paper (see DESIGN.md):
      //  * only the flagged rung is touched — the detector compares two
      //    noisy windows and false-flags ~16% of the time on stationary
      //    demand, so whole-grid resets would routinely destroy good
      //    estimates;
      //  * re-seeding (instead of resetting to "unobserved") prevents the
      //    rung from becoming infinitely optimistic and dragging the
      //    grid's price to p_max for dozens of periods while it relearns.
      ChangeDetector& det = change_[g][idx];
      const int64_t window = det.window_size();
      const int64_t window_accepts = static_cast<int64_t>(
          std::llround(det.reference_rate() * static_cast<double>(window)));
      ucb_[g].ResetRung(idx);
      ucb_[g].ObserveBulk(idx, window, window_accepts);
      ++change_resets_;
    }
  }
}

namespace {
constexpr uint32_t kMapsStateVersion = 1;
}  // namespace

Status Maps::SaveState(StateWriter* w) const {
  w->PutU32(kMapsStateVersion);
  MAPS_RETURN_NOT_OK(base_.SaveState(w));
  w->PutBool(warmed_up_);
  w->PutU64(ucb_.size());
  for (const auto& u : ucb_) u.Save(w);
  for (const auto& row : change_) {
    w->PutU64(row.size());
    for (const auto& det : row) det.Save(w);
  }
  w->PutI64(change_resets_);
  w->PutI64(grid_state_resets_);
  return Status::OK();
}

Status Maps::LoadState(StateReader* r) {
  uint32_t version;
  MAPS_RETURN_NOT_OK(r->GetU32(&version, "MAPS state version"));
  if (version != kMapsStateVersion) {
    return Status::InvalidArgument("unsupported MAPS state version " +
                                   std::to_string(version));
  }
  // Decode everything into temporaries; commit only when the whole payload
  // decoded, so a corrupt tail cannot leave the strategy half-restored.
  BasePricing base = base_;
  MAPS_RETURN_NOT_OK(base.LoadState(r));
  bool warmed_up;
  MAPS_RETURN_NOT_OK(r->GetBool(&warmed_up, "MAPS warmed_up"));
  uint64_t grids;
  MAPS_RETURN_NOT_OK(r->GetU64(&grids, "MAPS grid count"));
  // Each grid's UCB payload is at least its rung-count word.
  MAPS_RETURN_NOT_OK(CheckDecodedCount(*r, grids, 8, "MAPS grids"));
  std::vector<UcbEstimator> ucb;
  ucb.reserve(static_cast<size_t>(grids));
  for (uint64_t g = 0; g < grids; ++g) {
    ucb.emplace_back(&ladder_);
    MAPS_RETURN_NOT_OK(ucb.back().Load(r));
  }
  std::vector<std::vector<ChangeDetector>> change;
  change.reserve(static_cast<size_t>(grids));
  for (uint64_t g = 0; g < grids; ++g) {
    uint64_t row_n;
    MAPS_RETURN_NOT_OK(r->GetU64(&row_n, "MAPS detector rung count"));
    if (row_n != static_cast<uint64_t>(ladder_.size())) {
      return Status::InvalidArgument(
          "MAPS detector row has " + std::to_string(row_n) +
          " rungs, ladder has " + std::to_string(ladder_.size()));
    }
    std::vector<ChangeDetector> row;
    row.reserve(static_cast<size_t>(row_n));
    for (uint64_t i = 0; i < row_n; ++i) {
      row.emplace_back(options_.change_window);
      MAPS_RETURN_NOT_OK(row.back().Load(r));
    }
    change.push_back(std::move(row));
  }
  int64_t change_resets, grid_state_resets;
  MAPS_RETURN_NOT_OK(r->GetI64(&change_resets, "MAPS change_resets"));
  MAPS_RETURN_NOT_OK(r->GetI64(&grid_state_resets, "MAPS grid_state_resets"));
  if (change_resets < 0 || grid_state_resets < 0) {
    return Status::InvalidArgument("MAPS reset counters are negative");
  }

  base_ = std::move(base);
  warmed_up_ = warmed_up;
  ucb_ = std::move(ucb);
  change_ = std::move(change);
  change_resets_ = change_resets;
  grid_state_resets_ = grid_state_resets;
  return Status::OK();
}

size_t Maps::MemoryFootprintBytes() const {
  // Persistent learned state only; the pooled round scratch (pre-matching
  // + engine tables) is tracked via peak_round_bytes().
  size_t bytes = base_.MemoryFootprintBytes();
  for (const auto& u : ucb_) bytes += u.FootprintBytes();
  bytes += change_.size() * ladder_.size() * sizeof(ChangeDetector);
  bytes += last_supply_.capacity() * sizeof(int);
  return bytes;
}

}  // namespace maps
