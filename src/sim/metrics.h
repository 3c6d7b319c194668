// The strategy roster of the paper's experiments: the five strategies of
// Sec. 5.1 as named factories, so each run gets a fresh instance.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pricing/strategy.h"

namespace maps {

/// \brief Named factory so every sweep point gets a fresh strategy instance
/// (statistics must not leak between x values).
struct StrategyFactory {
  std::string name;
  std::function<std::unique_ptr<PricingStrategy>()> make;
};

/// \brief The paper's five strategies: MAPS, BaseP, SDR, SDE, CappedUCB.
std::vector<StrategyFactory> DefaultStrategies(const PricingConfig& config);

}  // namespace maps
