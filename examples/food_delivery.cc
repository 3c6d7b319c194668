// Food-delivery lunch rush: builds a CUSTOM workload directly against the
// public API (no generator) — restaurants cluster in a food court, couriers
// start near depots, orders spike at noon — then compares all five pricing
// strategies on the identical market.
//
//   $ ./build/examples/food_delivery

#include <algorithm>
#include <iostream>

#include "sim/metrics.h"
#include "sim/simulator.h"
#include "sim/workload.h"
#include "util/csv.h"

int main() {
  using namespace maps;  // NOLINT

  // A 6 km x 6 km city quarter cut into 6x6 grids of 1 km.
  auto grid = GridPartition::Make(Rect{0, 0, 6, 6}, 6, 6).ValueOrDie();

  // Demand model: customers near the food court tolerate higher delivery
  // fees (truncated-normal mean 2.6) than the suburbs (mean 1.8).
  const Point food_court{2.0, 2.0};
  std::vector<std::unique_ptr<DemandModel>> models;
  for (int g = 0; g < grid.num_cells(); ++g) {
    const double dist = EuclideanDistance(grid.CellCenter(g), food_court);
    const double mu = dist < 2.0 ? 2.6 : 1.8;
    models.push_back(
        std::make_unique<TruncatedNormalDemand>(mu, 0.9, 1.0, 5.0));
  }
  DemandOracle oracle =
      DemandOracle::Make(std::move(models), 11).ValueOrDie();

  Workload lunch(grid, std::move(oracle));
  lunch.name = "lunch-rush";
  lunch.num_periods = 90;  // 11:00 - 12:30, one-minute batches
  lunch.lifecycle.single_use = false;
  lunch.lifecycle.speed = 0.4;  // 24 km/h e-bikes

  // Orders: Gaussian spike centered at 12:00 (period 60), pickups at the
  // food court or one of two restaurant strips, drop-offs anywhere.
  Rng rng(99);
  const std::vector<Point> kitchens = {{2.0, 2.0}, {4.5, 4.5}, {1.0, 5.0}};
  const int num_orders = 2500;
  for (int i = 0; i < num_orders; ++i) {
    Task t;
    const double when = SampleNormal(rng, 60.0, 18.0);
    t.period = static_cast<int32_t>(std::clamp(when, 0.0, 89.0));
    const Point& k = kitchens[rng.NextBounded(kitchens.size())];
    t.origin = Rect{0, 0, 6, 6}.Clamp(
        {SampleNormal(rng, k.x, 0.4), SampleNormal(rng, k.y, 0.4)});
    t.destination = {rng.NextDouble(0, 6), rng.NextDouble(0, 6)};
    t.distance = EuclideanDistance(t.origin, t.destination);
    t.grid = lunch.grid.CellOf(t.origin);
    lunch.tasks.push_back(t);
  }
  std::sort(lunch.tasks.begin(), lunch.tasks.end(),
            [](const Task& a, const Task& b) { return a.period < b.period; });
  for (size_t i = 0; i < lunch.tasks.size(); ++i) {
    lunch.tasks[i].id = static_cast<TaskId>(i);
    lunch.valuations.push_back(
        lunch.oracle.model(lunch.tasks[i].grid).Sample(rng));
  }

  // Couriers: 160 riders clock in during the first hour near two depots,
  // each works a 45-minute shift and can pick up within 1.5 km.
  const std::vector<Point> depots = {{2.5, 2.5}, {4.0, 4.0}};
  for (int i = 0; i < 160; ++i) {
    Worker w;
    w.period = static_cast<int32_t>(rng.NextBounded(60));
    const Point& d = depots[i % depots.size()];
    w.location = Rect{0, 0, 6, 6}.Clamp(
        {SampleNormal(rng, d.x, 0.8), SampleNormal(rng, d.y, 0.8)});
    w.radius = 1.5;
    w.duration = 45;
    w.grid = lunch.grid.CellOf(w.location);
    lunch.workers.push_back(w);
  }
  std::sort(lunch.workers.begin(), lunch.workers.end(),
            [](const Worker& a, const Worker& b) {
              return a.period < b.period;
            });
  for (size_t i = 0; i < lunch.workers.size(); ++i) {
    lunch.workers[i].id = static_cast<WorkerId>(i);
  }

  if (Status st = ValidateWorkload(lunch); !st.ok()) {
    std::cerr << "workload invalid: " << st << "\n";
    return 1;
  }
  std::cout << "Lunch rush: " << lunch.tasks.size() << " orders, "
            << lunch.workers.size() << " couriers, "
            << lunch.num_periods << " minutes\n\n";

  // Head-to-head: every strategy prices the same lunch rush.
  Table table({"strategy", "revenue", "orders_delivered", "time_secs"});
  auto strategies = DefaultStrategies(PricingConfig{});
  for (size_t s = 0; s < strategies.size(); ++s) {
    auto strategy = strategies[s].make();
    SimOptions opts;
    opts.warmup_stream = 60 + s;
    auto run = RunSimulation(lunch, strategy.get(), opts);
    if (!run.ok()) {
      std::cerr << strategies[s].name << " failed: " << run.status() << "\n";
      return 1;
    }
    const SimulationResult& r = run.ValueOrDie();
    table.AddRow(strategies[s].name, r.total_revenue, r.num_matched,
                 r.total_time_sec);
  }
  std::cout << table.ToText();
  std::cout << "\nDelivery fee = unit price x trip distance; couriers"
               " return to service after each drop-off until their shift"
               " ends.\n";
  return 0;
}
