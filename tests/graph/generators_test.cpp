#include "graph/generators.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/connectivity.h"

namespace ds::graph {
namespace {

TEST(Generators, GnpExtremes) {
  util::Rng rng(1);
  const Graph empty = gnp(20, 0.0, rng);
  EXPECT_EQ(empty.num_edges(), 0u);
  const Graph full = gnp(20, 1.0, rng);
  EXPECT_EQ(full.num_edges(), 20u * 19 / 2);
}

TEST(Generators, GnpDensity) {
  util::Rng rng(2);
  const Vertex n = 200;
  const double p = 0.1;
  double total = 0;
  for (int rep = 0; rep < 10; ++rep) {
    total += static_cast<double>(gnp(n, p, rng).num_edges());
  }
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(total / 10.0, expected, 0.06 * expected);
}

TEST(Generators, RandomBipartiteRespectsParts) {
  util::Rng rng(3);
  const Graph g = random_bipartite(10, 15, 0.5, rng);
  EXPECT_EQ(g.num_vertices(), 25u);
  for (const Edge& e : g.edges()) {
    const bool u_left = e.u < 10;
    const bool v_left = e.v < 10;
    EXPECT_NE(u_left, v_left) << "edge inside a part";
  }
}

TEST(Generators, PathAndCycle) {
  const Graph p = path(5);
  EXPECT_EQ(p.num_edges(), 4u);
  EXPECT_EQ(p.degree(0), 1u);
  EXPECT_EQ(p.degree(2), 2u);
  const Graph c = cycle(5);
  EXPECT_EQ(c.num_edges(), 5u);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(c.degree(v), 2u);
}

TEST(Generators, Complete) {
  const Graph k5 = complete(5);
  EXPECT_EQ(k5.num_edges(), 10u);
  EXPECT_EQ(k5.max_degree(), 4u);
}

TEST(Generators, TwoClustersWithBridge) {
  util::Rng rng(5);
  const auto [g, bridge] = two_clusters_with_bridge(40, 0.4, rng);
  EXPECT_EQ(g.num_vertices(), 40u);
  EXPECT_TRUE(g.has_edge(bridge.u, bridge.v));
  EXPECT_LT(bridge.u, 20u);
  EXPECT_GE(bridge.v, 20u);
  // Dense halves are connected w.h.p.; the whole graph then has exactly
  // one component through the bridge.
  EXPECT_EQ(connected_components(g).count, 1u);
  // Removing the bridge must disconnect the halves.
  std::vector<Edge> without;
  for (const Edge& e : g.edges()) {
    if (e.normalized() != bridge.normalized()) without.push_back(e);
  }
  const Graph cut = Graph::from_edges(40, without);
  EXPECT_EQ(connected_components(cut).count, 2u);
}

TEST(Generators, SubsampleEdgesExtremes) {
  util::Rng rng(6);
  const Graph g = complete(12);
  EXPECT_EQ(subsample_edges(g, 0.0, rng).num_edges(), 0u);
  EXPECT_EQ(subsample_edges(g, 1.0, rng).num_edges(), g.num_edges());
}

TEST(Generators, SubsampleEdgesRate) {
  util::Rng rng(7);
  const Graph g = complete(60);  // 1770 edges
  double total = 0;
  for (int rep = 0; rep < 20; ++rep) {
    total += static_cast<double>(subsample_edges(g, 0.5, rng).num_edges());
  }
  EXPECT_NEAR(total / 20.0, static_cast<double>(g.num_edges()) / 2.0, 40.0);
}

TEST(Generators, SubsampleIsSubset) {
  util::Rng rng(8);
  const Graph g = gnp(50, 0.2, rng);
  const Graph sub = subsample_edges(g, 0.5, rng);
  for (const Edge& e : sub.edges()) EXPECT_TRUE(g.has_edge(e.u, e.v));
}

TEST(Generators, RmatEdgesAreValidAndDeterministic) {
  const RmatParams params;
  std::vector<Edge> first;
  util::Rng rng_a(9);
  rmat_edges(100, 500, params, rng_a, [&](Edge e) { first.push_back(e); });
  ASSERT_EQ(first.size(), 500u);
  for (const Edge& e : first) {
    EXPECT_LT(e.u, 100u);
    EXPECT_LT(e.v, 100u);
    EXPECT_NE(e.u, e.v);
  }
  std::vector<Edge> second;
  util::Rng rng_b(9);
  rmat_edges(100, 500, params, rng_b, [&](Edge e) { second.push_back(e); });
  EXPECT_EQ(first, second);
}

TEST(Generators, RmatMaterializedMatchesCallbackDraws) {
  const RmatParams params;
  util::Rng rng_a(10);
  const Graph g = rmat(64, 300, params, rng_a);
  std::vector<Edge> drawn;
  util::Rng rng_b(10);
  rmat_edges(64, 300, params, rng_b, [&](Edge e) { drawn.push_back(e); });
  EXPECT_EQ(g, Graph::from_edges(64, drawn));
}

TEST(Generators, RmatIsSkewedTowardLowIds) {
  // With the default quadrant weights most edge mass concentrates on
  // low vertex ids: P(top two bits zero) = (a+b)^2 ~ 0.58 per endpoint.
  // Count raw draws (materializing dedups the dense corner and flattens
  // the skew).
  util::Rng rng(11);
  std::uint64_t low = 0;
  std::uint64_t total = 0;
  rmat_edges(256, 4000, RmatParams{}, rng, [&](Edge e) {
    total += 2;
    if (e.u < 64) ++low;
    if (e.v < 64) ++low;
  });
  EXPECT_GT(low * 2, total);  // >50% of mass in the lowest 25% of ids
}

TEST(Generators, PowerLawWeightsSampleSkew) {
  const PowerLawWeights weights(1000, 2.5);
  EXPECT_EQ(weights.num_vertices(), 1000u);
  util::Rng rng(12);
  std::uint64_t low = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    if (weights.sample(rng) < 100) ++low;
  }
  // The head of a power law holds far more than its 10% uniform share.
  EXPECT_GT(low, kDraws / 4);
}

TEST(Generators, ChungLuEdgesValidAndDeterministic) {
  const PowerLawWeights weights(500, 2.5);
  std::vector<Edge> first;
  util::Rng rng_a(13);
  chung_lu_edges(weights, 800, rng_a, [&](Edge e) { first.push_back(e); });
  ASSERT_EQ(first.size(), 800u);
  for (const Edge& e : first) {
    EXPECT_LT(e.u, 500u);
    EXPECT_LT(e.v, 500u);
    EXPECT_NE(e.u, e.v);
  }
  std::vector<Edge> second;
  util::Rng rng_b(13);
  chung_lu_edges(weights, 800, rng_b, [&](Edge e) { second.push_back(e); });
  EXPECT_EQ(first, second);
}

TEST(Generators, RmatHandlesNonPowerOfTwoN) {
  util::Rng rng(15);
  std::size_t count = 0;
  rmat_edges(100, 200, RmatParams{}, rng, [&](Edge e) {
    EXPECT_LT(e.u, 100u);
    EXPECT_LT(e.v, 100u);
    ++count;
  });
  EXPECT_EQ(count, 200u);
}

}  // namespace
}  // namespace ds::graph
