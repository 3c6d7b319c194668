#include "sim/metrics.h"

#include "pricing/base_pricing.h"
#include "pricing/capped_ucb.h"
#include "pricing/maps.h"
#include "pricing/sde.h"
#include "pricing/sdr.h"

namespace maps {

std::vector<StrategyFactory> DefaultStrategies(const PricingConfig& config) {
  std::vector<StrategyFactory> out;
  out.push_back({"MAPS", [config] {
                   MapsOptions opts;
                   opts.pricing = config;
                   return std::make_unique<Maps>(opts);
                 }});
  out.push_back({"BaseP", [config] {
                   return std::make_unique<BasePricing>(config);
                 }});
  out.push_back(
      {"SDR", [config] { return std::make_unique<Sdr>(config); }});
  out.push_back(
      {"SDE", [config] { return std::make_unique<Sde>(config); }});
  out.push_back({"CappedUCB", [config] {
                   return std::make_unique<CappedUcb>(config);
                 }});
  return out;
}

}  // namespace maps
