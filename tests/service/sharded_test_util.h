// Shared fixtures for the sharded-engine test suites.

#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "market/market_state.h"
#include "pricing/strategy.h"
#include "service/market_engine.h"

namespace maps {
namespace testing_util {

/// \brief A pricing strategy whose quote for a cell depends ONLY on that
/// cell's own feedback history: prices[g] = base + 0.1 * (accepted tasks
/// seen in g so far). Cell-local state is what makes the boundary-free
/// sharded-vs-monolithic equivalence exact: a region strategy that only
/// ever observes its own band's tasks still agrees with the monolith's
/// strategy on every cell the region owns. Checkpointable, so the recovery
/// suites can reuse it.
class CellLocalStrategy : public PricingStrategy {
 public:
  explicit CellLocalStrategy(double base = 2.0) : base_(base) {}

  std::string name() const override { return "CellLocalTest"; }

  Status PriceRound(const MarketSnapshot& snapshot,
                    std::vector<double>* grid_prices) override {
    if (counts_.size() < static_cast<size_t>(snapshot.num_grids())) {
      counts_.resize(snapshot.num_grids(), 0);
    }
    grid_prices->resize(snapshot.num_grids());
    for (int g = 0; g < snapshot.num_grids(); ++g) {
      (*grid_prices)[g] = base_ + 0.1 * static_cast<double>(counts_[g]);
    }
    return Status::OK();
  }

  void ObserveFeedback(const MarketSnapshot& snapshot,
                       const std::vector<double>& grid_prices,
                       const std::vector<bool>& accepted) override {
    (void)grid_prices;
    if (counts_.size() < static_cast<size_t>(snapshot.num_grids())) {
      counts_.resize(snapshot.num_grids(), 0);
    }
    const std::vector<Task>& tasks = snapshot.tasks();
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (accepted[i]) ++counts_[tasks[i].grid];
    }
  }

  size_t MemoryFootprintBytes() const override {
    return counts_.capacity() * sizeof(int64_t);
  }

  Status SaveState(StateWriter* w) const override {
    w->PutU32(1);
    w->PutU64(counts_.size());
    for (int64_t c : counts_) w->PutI64(c);
    return Status::OK();
  }

  Status LoadState(StateReader* r) override {
    uint32_t version = 0;
    MAPS_RETURN_NOT_OK(r->GetU32(&version, "cell-local state version"));
    if (version != 1) {
      return Status::InvalidArgument("unsupported cell-local state version " +
                                     std::to_string(version));
    }
    uint64_t n = 0;
    MAPS_RETURN_NOT_OK(r->GetU64(&n, "cell-local count size"));
    std::vector<int64_t> counts(static_cast<size_t>(n));
    for (int64_t& c : counts) {
      MAPS_RETURN_NOT_OK(r->GetI64(&c, "cell-local count"));
    }
    counts_ = std::move(counts);
    return Status::OK();
  }

 private:
  double base_;
  std::vector<int64_t> counts_;  // accepted tasks observed per cell
};

/// \brief FNV-1a (64-bit) fold over exact bit patterns, for pinning outcomes
/// as one number that must not change across commits.
class OutcomeDigest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 1099511628211ULL;
    }
  }
  void AddDouble(double v) { Add(std::bit_cast<uint64_t>(v)); }
  /// Folds each byte of `bytes` (a checkpoint blob, say) in order.
  void AddBytes(const std::string& bytes) {
    for (const char c : bytes) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 1099511628211ULL;
    }
  }

  /// Every externally visible field of a close: quotes and revenue by bit
  /// pattern, accepted ids, matches, counters, and the per-region health.
  void AddOutcome(const PeriodOutcome& o) {
    Add(static_cast<uint64_t>(o.period));
    Add(o.skipped ? 1 : 0);
    Add(o.prices.size());
    for (double p : o.prices) AddDouble(p);
    Add(o.accepted.size());
    for (TaskId id : o.accepted) Add(static_cast<uint64_t>(id));
    Add(o.matches.size());
    for (const MatchRecord& m : o.matches) {
      Add(static_cast<uint64_t>(m.task));
      Add(static_cast<uint64_t>(m.worker));
      AddDouble(m.revenue);
    }
    AddDouble(o.revenue);
    Add(static_cast<uint64_t>(o.num_tasks));
    Add(static_cast<uint64_t>(o.num_available_workers));
    const EngineRejectionCounters& r = o.rejections;
    for (int64_t c : {r.duplicate_tasks, r.unknown_worker_removals,
                      r.busy_worker_removals, r.orphan_acceptances,
                      r.deferred_tasks}) {
      Add(static_cast<uint64_t>(c));
    }
    Add(o.region_health.size());
    for (const RegionHealth& h : o.region_health) {
      Add(static_cast<uint64_t>(h.region));
      Add(static_cast<uint64_t>(h.state));
      Add(static_cast<uint64_t>(h.attempts));
      Add(static_cast<uint64_t>(h.quarantined_since));
    }
  }

  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

}  // namespace testing_util
}  // namespace maps
