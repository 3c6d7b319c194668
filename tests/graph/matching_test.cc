#include <gtest/gtest.h>

#include <algorithm>

#include "graph/bipartite_graph.h"
#include "graph/hopcroft_karp.h"
#include "graph/incremental_matching.h"
#include "rng/random.h"

namespace maps {
namespace {

BipartiteGraph RandomGraph(Rng& rng, int max_l, int max_r, double density) {
  const int nl = 1 + static_cast<int>(rng.NextBounded(max_l));
  const int nr = 1 + static_cast<int>(rng.NextBounded(max_r));
  std::vector<std::pair<int, int>> edges;
  for (int l = 0; l < nl; ++l) {
    for (int r = 0; r < nr; ++r) {
      if (rng.NextBernoulli(density)) edges.push_back({l, r});
    }
  }
  return BipartiteGraph::FromEdges(nl, nr, std::move(edges));
}

void CheckValidMatching(const BipartiteGraph& g, const Matching& m) {
  int count = 0;
  for (int l = 0; l < g.num_left(); ++l) {
    const int r = m.match_left[l];
    if (r == Matching::kUnmatched) continue;
    ++count;
    ASSERT_EQ(m.match_right[r], l) << "asymmetric match";
    auto nb = g.Neighbors(l);
    ASSERT_TRUE(std::find(nb.begin(), nb.end(), r) != nb.end())
        << "matched along a non-edge";
  }
  ASSERT_EQ(count, m.size);
}

TEST(HopcroftKarpTest, KnownSmallCases) {
  auto g = BipartiteGraph::FromEdges(
      3, 3, {{0, 0}, {0, 1}, {1, 0}, {2, 1}, {2, 2}});
  EXPECT_EQ(HopcroftKarpMatching(g).size, 3);

  // Star: 3 lefts all pointing at one right -> size 1.
  auto star = BipartiteGraph::FromEdges(3, 1, {{0, 0}, {1, 0}, {2, 0}});
  EXPECT_EQ(HopcroftKarpMatching(star).size, 1);

  // No edges.
  auto empty = BipartiteGraph::FromEdges(3, 3, {});
  EXPECT_EQ(HopcroftKarpMatching(empty).size, 0);
}

class MatchingEquivalenceTest : public ::testing::TestWithParam<double> {};

TEST_P(MatchingEquivalenceTest, KuhnEqualsHopcroftKarpEqualsIncremental) {
  // Property: Hopcroft-Karp and the incremental matcher agree on maximum
  // cardinality. (The test keeps its name from when a third matcher, Kuhn's
  // algorithm, took part.)
  Rng rng(static_cast<uint64_t>(GetParam() * 1000) + 5);
  for (int trial = 0; trial < 60; ++trial) {
    const BipartiteGraph g = RandomGraph(rng, 30, 30, GetParam());
    const Matching hk = HopcroftKarpMatching(g);
    CheckValidMatching(g, hk);

    IncrementalMatching inc(&g);
    for (int l = 0; l < g.num_left(); ++l) inc.TryAugment(l);
    CheckValidMatching(g, inc.matching());
    ASSERT_EQ(inc.size(), hk.size) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(DensitySweep, MatchingEquivalenceTest,
                         ::testing::Values(0.02, 0.05, 0.15, 0.4, 0.8));

TEST(IncrementalMatchingTest, TryAugmentIdempotentOnMatchedVertex) {
  auto g = BipartiteGraph::FromEdges(2, 1, {{0, 0}, {1, 0}});
  IncrementalMatching inc(&g);
  EXPECT_TRUE(inc.TryAugment(0));
  EXPECT_EQ(inc.size(), 1);
  EXPECT_TRUE(inc.TryAugment(0));  // already matched: true, no growth
  EXPECT_EQ(inc.size(), 1);
  EXPECT_FALSE(inc.TryAugment(1));  // the only worker is taken
}

TEST(IncrementalMatchingTest, AugmentingPathReroutesExistingMatches) {
  // l0-{r0}, l1-{r0, r1}: matching l1 first to r0 must not block l0.
  auto g = BipartiteGraph::FromEdges(2, 2, {{0, 0}, {1, 0}, {1, 1}});
  IncrementalMatching inc(&g);
  EXPECT_TRUE(inc.TryAugment(1));
  EXPECT_TRUE(inc.TryAugment(0));  // forces l1 to reroute to r1
  EXPECT_EQ(inc.size(), 2);
  EXPECT_EQ(inc.matching().match_left[0], 0);
  EXPECT_EQ(inc.matching().match_left[1], 1);
}

TEST(IncrementalMatchingTest, AnyAugmentableDoesNotMutate) {
  auto g = BipartiteGraph::FromEdges(2, 1, {{0, 0}, {1, 0}});
  IncrementalMatching inc(&g);
  EXPECT_TRUE(inc.AnyAugmentable({0, 1}));
  EXPECT_EQ(inc.size(), 0);  // probe only
  EXPECT_TRUE(inc.TryAugment(0));
  EXPECT_FALSE(inc.AnyAugmentable({1}));
  EXPECT_EQ(inc.size(), 1);
}

TEST(IncrementalMatchingTest, AugmentFirstSkipsMatchedAndPicksFirstFeasible) {
  auto g = BipartiteGraph::FromEdges(3, 2, {{0, 0}, {1, 0}, {2, 1}});
  IncrementalMatching inc(&g);
  EXPECT_EQ(inc.AugmentFirst({0, 1, 2}), 0);
  EXPECT_EQ(inc.AugmentFirst({0, 1, 2}), 2);  // 0 matched, 1 blocked
  EXPECT_EQ(inc.AugmentFirst({0, 1, 2}), Matching::kUnmatched);
}

TEST(IncrementalMatchingTest, SinglePassCoreMatchesHopcroftKarp) {
  // Post-refactor guard: driving the matching exclusively through the
  // probe/commit pair (FindAugmentablePath + CommitPath) must reach the
  // same maximum cardinality Hopcroft-Karp computes.
  Rng rng(4242);
  for (int trial = 0; trial < 60; ++trial) {
    const BipartiteGraph g = RandomGraph(rng, 40, 30, 0.1);
    const Matching hk = HopcroftKarpMatching(g);

    IncrementalMatching inc(&g);
    std::vector<int> all(g.num_left());
    for (int l = 0; l < g.num_left(); ++l) all[l] = l;
    RecordedPath path;
    while (inc.FindAugmentablePath(all, &path) != Matching::kUnmatched) {
      ASSERT_TRUE(inc.CommitPath(path)) << "fresh path must commit";
    }
    CheckValidMatching(g, inc.matching());
    ASSERT_EQ(inc.size(), hk.size) << "trial " << trial;
  }
}

TEST(IncrementalMatchingTest, StalePathIsRejectedAndMatchingUntouched) {
  // Two roots share the only free worker: the second recorded path goes
  // stale once the first commits, and CommitPath must refuse it.
  auto g = BipartiteGraph::FromEdges(2, 1, {{0, 0}, {1, 0}});
  IncrementalMatching inc(&g);
  RecordedPath p0, p1;
  ASSERT_EQ(inc.FindAugmentablePath({0}, &p0), 0);
  ASSERT_EQ(inc.FindAugmentablePath({1}, &p1), 1);
  ASSERT_TRUE(inc.CommitPath(p0));
  EXPECT_EQ(inc.size(), 1);
  EXPECT_FALSE(inc.CommitPath(p1)) << "stale path committed";
  EXPECT_EQ(inc.size(), 1);
  EXPECT_EQ(inc.matching().match_left[0], 0);
  EXPECT_EQ(inc.matching().match_left[1], Matching::kUnmatched);
}

TEST(IncrementalMatchingTest, StaleReroutedPathStillRejected) {
  // l1's recorded path (l1->r0) goes stale when l0 re-routes r0's match:
  // after committing l0 via r0, the recorded successor of r0 changed.
  auto g = BipartiteGraph::FromEdges(3, 2, {{0, 0}, {1, 0}, {1, 1}, {2, 1}});
  IncrementalMatching inc(&g);
  ASSERT_TRUE(inc.TryAugment(1));  // l1 -> r0
  RecordedPath p2;
  ASSERT_EQ(inc.FindAugmentablePath({2}, &p2), 2);  // l2 -> r1
  // l0 forces l1 to re-route to r1; p2's terminal right vertex is taken.
  ASSERT_TRUE(inc.TryAugment(0));
  EXPECT_FALSE(inc.CommitPath(p2));
  EXPECT_EQ(inc.size(), 2);
}

TEST(IncrementalMatchingTest, RandomizedProbeCommitInterleavingStaysMaximum) {
  // Probe one candidate half, commit later (possibly stale after the other
  // half augmented), falling back to AugmentFirst — the exact discipline
  // PriceRound uses. Final size must still match Hopcroft-Karp.
  Rng rng(1717);
  for (int trial = 0; trial < 40; ++trial) {
    const BipartiteGraph g = RandomGraph(rng, 30, 20, 0.15);
    const Matching hk = HopcroftKarpMatching(g);
    IncrementalMatching inc(&g);
    std::vector<int> half_a, half_b;
    for (int l = 0; l < g.num_left(); ++l) {
      (l % 2 == 0 ? half_a : half_b).push_back(l);
    }
    RecordedPath pa;
    bool progress = true;
    while (progress) {
      progress = false;
      const int root = inc.FindAugmentablePath(half_a, &pa);
      // Interleave: half_b grabs a worker between probe and commit.
      if (inc.AugmentFirst(half_b) != Matching::kUnmatched) progress = true;
      if (root != Matching::kUnmatched) {
        if (inc.CommitPath(pa) ||
            inc.AugmentFirst(half_a) != Matching::kUnmatched) {
          progress = true;
        }
      }
    }
    CheckValidMatching(g, inc.matching());
    ASSERT_EQ(inc.size(), hk.size) << "trial " << trial;
  }
}

TEST(IncrementalMatchingTest, ResetReusesBuffersAcrossGraphs) {
  auto g1 = BipartiteGraph::FromEdges(2, 2, {{0, 0}, {1, 1}});
  auto g2 = BipartiteGraph::FromEdges(3, 1, {{0, 0}, {1, 0}, {2, 0}});
  IncrementalMatching inc(&g1);
  EXPECT_TRUE(inc.TryAugment(0));
  EXPECT_TRUE(inc.TryAugment(1));
  EXPECT_EQ(inc.size(), 2);
  inc.Reset(&g2);
  EXPECT_EQ(inc.size(), 0);
  EXPECT_TRUE(inc.TryAugment(0));
  EXPECT_FALSE(inc.TryAugment(1));
  EXPECT_EQ(inc.size(), 1);
}

TEST(IncrementalMatchingTest, MonotoneUnderInterleavedCandidates) {
  // Once AnyAugmentable(S) is false for a candidate set S, it stays false
  // as other vertices are matched (transversal-matroid monotonicity MAPS
  // relies on).
  Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const BipartiteGraph g = RandomGraph(rng, 20, 12, 0.15);
    IncrementalMatching inc(&g);
    std::vector<int> half_a, half_b;
    for (int l = 0; l < g.num_left(); ++l) {
      (l % 2 == 0 ? half_a : half_b).push_back(l);
    }
    bool a_dead = false;
    for (int step = 0; step < g.num_left(); ++step) {
      if (!inc.AnyAugmentable(half_a)) a_dead = true;
      if (a_dead) {
        ASSERT_FALSE(inc.AnyAugmentable(half_a)) << "dead set revived";
      }
      if (inc.AugmentFirst(half_b) == Matching::kUnmatched &&
          inc.AugmentFirst(half_a) == Matching::kUnmatched) {
        break;
      }
    }
  }
}

TEST(IncrementalMatchingTest, LookaheadMatchesDirectFreeNeighbor) {
  // l0-{r0, r1} with r0 taken: the frame lookahead must match l0 straight
  // to the free r1 instead of walking an alternating re-route through r0.
  auto g = BipartiteGraph::FromEdges(3, 2, {{0, 0}, {0, 1}, {1, 0}, {2, 1}});
  IncrementalMatching inc(&g);
  ASSERT_TRUE(inc.TryAugment(1));  // l1 -> r0
  ASSERT_TRUE(inc.TryAugment(0));
  EXPECT_EQ(inc.matching().match_left[0], 1) << "direct free worker skipped";
  EXPECT_EQ(inc.matching().match_left[1], 0) << "needless re-route";
}

TEST(IncrementalMatchingTest, FailedProbeMarksSaturatedRegionDead) {
  // l0/l1 both only reach r0. After l0 takes it, a failed probe for l1
  // certifies {r0} as a saturated closed region; later probes for l2 (also
  // r0-only) must still fail, and r0 stays dead until Reset.
  auto g = BipartiteGraph::FromEdges(3, 2,
                                     {{0, 0}, {1, 0}, {2, 0}, {2, 1}});
  IncrementalMatching inc(&g);
  ASSERT_TRUE(inc.TryAugment(0));
  EXPECT_EQ(inc.num_dead(), 0);
  EXPECT_FALSE(inc.TryAugment(1));
  EXPECT_EQ(inc.num_dead(), 1) << "failed search left r0 live";
  // l2 still reaches the free r1 — pruning must not block live paths.
  EXPECT_TRUE(inc.TryAugment(2));
  EXPECT_EQ(inc.matching().match_left[2], 1);
  EXPECT_EQ(inc.num_dead(), 1);
  inc.Reset(&g);
  EXPECT_EQ(inc.num_dead(), 0);
}

TEST(IncrementalMatchingTest, DeadPruningNeverChangesFeasibility) {
  // Randomized cross-validation: drive one instance through the PriceRound
  // probe/commit discipline (which prunes) and compare every feasibility
  // answer against a fresh pruning-free oracle built per query by replaying
  // the committed roots through Hopcroft-Karp-equivalent growth.
  Rng rng(909);
  for (int trial = 0; trial < 40; ++trial) {
    const BipartiteGraph g = RandomGraph(rng, 24, 14, 0.12);
    IncrementalMatching inc(&g);
    std::vector<int> candidates(g.num_left());
    for (int l = 0; l < g.num_left(); ++l) candidates[l] = l;
    RecordedPath path;
    int guard = 0;
    while (true) {
      ASSERT_LT(guard++, 1000);
      const int root = inc.FindAugmentablePath(candidates, &path);
      // Oracle without pruning: same committed left set, fresh matcher.
      IncrementalMatching oracle(&g);
      for (int l = 0; l < g.num_left(); ++l) {
        if (inc.matching().IsLeftMatched(l)) {
          ASSERT_TRUE(oracle.TryAugment(l));
        }
      }
      RecordedPath oracle_path;
      ASSERT_EQ(oracle.FindAugmentablePath(candidates, &oracle_path), root)
          << "pruning changed the admitted root, trial " << trial;
      if (root == Matching::kUnmatched) break;
      ASSERT_TRUE(inc.CommitPath(path));
    }
    ASSERT_EQ(inc.size(), HopcroftKarpMatching(g).size) << trial;
  }
}

}  // namespace
}  // namespace maps
