#include "graph/possible_worlds.h"

#include <gtest/gtest.h>

#include <ios>

#include "rng/random.h"

namespace maps {
namespace {

TEST(PossibleWorldsTest, SingleTaskClosedForm) {
  auto g = BipartiteGraph::FromEdges(1, 1, {{0, 0}});
  // E[U] = d * p * S.
  EXPECT_NEAR(ExactExpectedRevenue(g, {{2.0, 3.0, 0.4}}), 2.0 * 3.0 * 0.4,
              1e-12);
}

TEST(PossibleWorldsTest, TaskWithoutWorkerEarnsNothing) {
  auto g = BipartiteGraph::FromEdges(1, 1, {});
  EXPECT_DOUBLE_EQ(ExactExpectedRevenue(g, {{2.0, 3.0, 0.9}}), 0.0);
}

TEST(PossibleWorldsTest, IndependentTasksSumUp) {
  // Two tasks with disjoint workers: expectation is additive.
  auto g = BipartiteGraph::FromEdges(2, 2, {{0, 0}, {1, 1}});
  const double e =
      ExactExpectedRevenue(g, {{1.0, 2.0, 0.5}, {3.0, 1.0, 0.25}});
  EXPECT_NEAR(e, 1.0 * 2.0 * 0.5 + 3.0 * 1.0 * 0.25, 1e-12);
}

TEST(PossibleWorldsTest, ContendingTasksUseMaxWeightWorld) {
  // Both tasks need the single worker; weights 6 (=3*2) and 2 (=1*2).
  // E = P(both) * 6 + P(only a) * 6 + P(only b) * 2.
  auto g = BipartiteGraph::FromEdges(2, 1, {{0, 0}, {1, 0}});
  const double sa = 0.5, sb = 0.4;
  const double expected =
      sa * sb * 6.0 + sa * (1 - sb) * 6.0 + (1 - sa) * sb * 2.0;
  EXPECT_NEAR(
      ExactExpectedRevenue(g, {{3.0, 2.0, sa}, {1.0, 2.0, sb}}), expected,
      1e-12);
}

TEST(PossibleWorldsTest, PaperExampleThreeRevenue) {
  // Example 3 / Fig. 2: prices {3, 3, 2} with Table 1's acceptance ratios.
  // r1 (d=1.3) and r2 (d=0.7) compete for one worker; r3 (d=1) is served
  // whenever it accepts. Expected total = 4.075 (the paper reports 4.1
  // after rounding).
  auto g = BipartiteGraph::FromEdges(3, 3, {{0, 0}, {1, 0}, {2, 1}, {2, 2}});
  std::vector<PricedTask> tasks = {
      {1.3, 3.0, 0.5}, {0.7, 3.0, 0.5}, {1.0, 2.0, 0.8}};
  EXPECT_NEAR(ExactExpectedRevenue(g, tasks), 4.075, 1e-12);
}

TEST(PossibleWorldsTest, DegenerateProbabilities) {
  auto g = BipartiteGraph::FromEdges(2, 1, {{0, 0}, {1, 0}});
  // accept_prob 1 and 0: deterministic world.
  EXPECT_DOUBLE_EQ(
      ExactExpectedRevenue(g, {{2.0, 2.0, 1.0}, {9.0, 9.0, 0.0}}), 4.0);
}

TEST(PossibleWorldsTest, MonteCarloAgreesWithExact) {
  Rng geom(7);
  for (int trial = 0; trial < 5; ++trial) {
    const int nt = 2 + static_cast<int>(geom.NextBounded(6));
    const int nw = 1 + static_cast<int>(geom.NextBounded(4));
    std::vector<std::pair<int, int>> edges;
    for (int t = 0; t < nt; ++t) {
      for (int w = 0; w < nw; ++w) {
        if (geom.NextBernoulli(0.5)) edges.push_back({t, w});
      }
    }
    auto g = BipartiteGraph::FromEdges(nt, nw, std::move(edges));
    std::vector<PricedTask> tasks(nt);
    for (auto& t : tasks) {
      t.distance = geom.NextDouble(0.5, 3.0);
      t.price = geom.NextDouble(1.0, 5.0);
      t.accept_prob = geom.NextDouble(0.1, 0.9);
    }
    const double exact = ExactExpectedRevenue(g, tasks);
    std::vector<PossibleWorldsWorkspace> workspaces;
    const double estimate = MonteCarloExpectedRevenue(
        g, tasks, /*seed=*/trial, 40000, /*pool=*/nullptr, &workspaces);
    // Bound the deviation loosely: ~4 sigma of the MC mean.
    EXPECT_NEAR(estimate, exact, std::max(0.05, exact * 0.05))
        << "trial " << trial;
  }
}

TEST(PossibleWorldsTest, PoolBackedEnumerationBitIdenticalAcrossThreads) {
  // The mask space is split into shards whose boundaries depend on n only;
  // partial sums are folded in shard order, so the expectation is
  // bit-identical for 1, 2, and 8 threads — the rounding-sensitive case is
  // a larger instance with irrational-ish probabilities.
  Rng geom(11);
  const int nt = 14, nw = 6;
  std::vector<std::pair<int, int>> edges;
  for (int t = 0; t < nt; ++t) {
    for (int w = 0; w < nw; ++w) {
      if (geom.NextBernoulli(0.4)) edges.push_back({t, w});
    }
  }
  auto g = BipartiteGraph::FromEdges(nt, nw, std::move(edges));
  std::vector<PricedTask> tasks(nt);
  for (auto& t : tasks) {
    t.distance = geom.NextDouble(0.5, 3.0);
    t.price = geom.NextDouble(1.0, 5.0);
    t.accept_prob = geom.NextDouble(0.1, 0.9);
  }

  std::vector<PossibleWorldsWorkspace> workspaces;
  ThreadPool pool1(1);
  const double r1 = ExactExpectedRevenue(g, tasks, &pool1, &workspaces);
  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(ExactExpectedRevenue(g, tasks, &pool, &workspaces), r1)
        << threads << " threads";
  }
  // And it agrees with the serial single-accumulator overload up to
  // floating-point association at shard boundaries.
  EXPECT_NEAR(r1, ExactExpectedRevenue(g, tasks), 1e-9);
}

TEST(PossibleWorldsTest, PoolBackedEnumerationReusesWorkspacesAcrossCalls) {
  // The workspace vector follows the PR 1 pooling contract: one entry per
  // worker, reused across invocations of different shapes with no leakage.
  auto g = BipartiteGraph::FromEdges(2, 1, {{0, 0}, {1, 0}});
  std::vector<PricedTask> small = {{3.0, 2.0, 0.5}, {1.0, 2.0, 0.4}};
  auto g2 = BipartiteGraph::FromEdges(3, 3, {{0, 0}, {1, 0}, {2, 1}, {2, 2}});
  std::vector<PricedTask> paper = {
      {1.3, 3.0, 0.5}, {0.7, 3.0, 0.5}, {1.0, 2.0, 0.8}};

  ThreadPool pool(4);
  std::vector<PossibleWorldsWorkspace> workspaces;
  const double first = ExactExpectedRevenue(g, small, &pool, &workspaces);
  EXPECT_NEAR(ExactExpectedRevenue(g2, paper, &pool, &workspaces), 4.075,
              1e-12);
  EXPECT_EQ(ExactExpectedRevenue(g, small, &pool, &workspaces), first);
  EXPECT_EQ(static_cast<int>(workspaces.size()), pool.num_threads());
}

TEST(PossibleWorldsTest, CounterMonteCarloBitIdenticalAcrossThreads) {
  // World w draws from CounterRng stream (seed, w) no matter which worker
  // evaluates it, and partial sums fold in fixed shard order — so the
  // estimate must be bit-identical with no pool and with 1, 2, and 8
  // threads, across repeated invocations on reused workspaces.
  Rng geom(19);
  const int nt = 12, nw = 5;
  std::vector<std::pair<int, int>> edges;
  for (int t = 0; t < nt; ++t) {
    for (int w = 0; w < nw; ++w) {
      if (geom.NextBernoulli(0.4)) edges.push_back({t, w});
    }
  }
  auto g = BipartiteGraph::FromEdges(nt, nw, std::move(edges));
  std::vector<PricedTask> tasks(nt);
  for (auto& t : tasks) {
    t.distance = geom.NextDouble(0.5, 3.0);
    t.price = geom.NextDouble(1.0, 5.0);
    t.accept_prob = geom.NextDouble(0.1, 0.9);
  }

  std::vector<PossibleWorldsWorkspace> workspaces;
  const double serial =
      MonteCarloExpectedRevenue(g, tasks, /*seed=*/33, /*samples=*/10001,
                                /*pool=*/nullptr, &workspaces);
  // Pinned bits: a change to the world streams, the shard layout or the
  // fold order moves this value even where every run still agrees.
  EXPECT_EQ(serial, 0x1.bb313bc6c9302p+4) << std::hexfloat << serial;
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(MonteCarloExpectedRevenue(g, tasks, 33, 10001, &pool,
                                        &workspaces),
              serial)
        << threads << " threads";
  }
  // A different seed family samples different worlds.
  EXPECT_NE(MonteCarloExpectedRevenue(g, tasks, 34, 10001, nullptr,
                                      &workspaces),
            serial);
}

TEST(PossibleWorldsTest, CounterMonteCarloConvergesToExactAtAnyThreadCount) {
  // Small random instances where the exact enumerator is the ground truth:
  // the counter-streamed estimate must land within ~4 sigma of it, and the
  // value used for the comparison must be the same at 1, 2, and 8 threads.
  Rng geom(23);
  for (int trial = 0; trial < 5; ++trial) {
    const int nt = 2 + static_cast<int>(geom.NextBounded(6));
    const int nw = 1 + static_cast<int>(geom.NextBounded(4));
    std::vector<std::pair<int, int>> edges;
    for (int t = 0; t < nt; ++t) {
      for (int w = 0; w < nw; ++w) {
        if (geom.NextBernoulli(0.5)) edges.push_back({t, w});
      }
    }
    auto g = BipartiteGraph::FromEdges(nt, nw, std::move(edges));
    std::vector<PricedTask> tasks(nt);
    for (auto& t : tasks) {
      t.distance = geom.NextDouble(0.5, 3.0);
      t.price = geom.NextDouble(1.0, 5.0);
      t.accept_prob = geom.NextDouble(0.1, 0.9);
    }
    const double exact = ExactExpectedRevenue(g, tasks);
    std::vector<PossibleWorldsWorkspace> workspaces;
    double estimate = 0.0;
    bool first = true;
    for (int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      const double e = MonteCarloExpectedRevenue(
          g, tasks, /*seed=*/100 + trial, 40000, &pool, &workspaces);
      if (first) {
        estimate = e;
        first = false;
      } else {
        ASSERT_EQ(e, estimate) << threads << " threads, trial " << trial;
      }
    }
    EXPECT_NEAR(estimate, exact, std::max(0.05, exact * 0.05))
        << "trial " << trial;
  }
}

TEST(PossibleWorldsDeathTest, TooManyTasksRefused) {
  std::vector<PricedTask> tasks(26, {1.0, 1.0, 0.5});
  auto g = BipartiteGraph::FromEdges(26, 1, {});
  EXPECT_DEATH(ExactExpectedRevenue(g, tasks), "2\\^n");
}

}  // namespace
}  // namespace maps
