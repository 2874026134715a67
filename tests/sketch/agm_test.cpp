#include "sketch/agm.h"

#include <gtest/gtest.h>

#include "graph/connectivity.h"
#include "graph/generators.h"

namespace ds::sketch {
namespace {

using graph::Graph;
using graph::Vertex;

/// Every vertex's sketch of g, in one table of n rows.
struct Sketched {
  AgmSketch shape;
  std::vector<std::uint64_t> table;
};

Sketched sketch_all(const Graph& g, const model::PublicCoins& coins) {
  Sketched s{AgmSketch::make(coins, g.num_vertices()), {}};
  s.table.assign(g.num_vertices() * s.shape.row_words(), 0);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    s.shape.add_vertex_edges(s.shape.row(s.table, v), v, g.neighbors(v));
  }
  return s;
}

SpanningForestDecode forest_of(const Graph& g,
                               const model::PublicCoins& coins) {
  const Sketched s = sketch_all(g, coins);
  return agm_spanning_forest(s.shape, s.table);
}

TEST(Agm, MergedPairSketchIsBoundary) {
  // Vertices u, v joined by an edge: merging their sketches cancels the
  // internal edge; with a third vertex w attached to v, the merged {u,v}
  // sketch should decode the boundary edge (v,w).
  const model::PublicCoins coins(1);
  const Graph g = graph::path(3);  // 0-1-2
  Sketched s = sketch_all(g, coins);
  const L0Sampler& sampler = s.shape.sampler(0);
  const auto state0 = s.shape.sampler_state(s.shape.row(s.table, 0), 0);
  merge_states(state0, s.shape.sampler_state(s.shape.row(s.table, 1), 0));
  const auto sample = sampler.decode(state0);
  ASSERT_TRUE(sample.has_value());
  const graph::Edge e = graph::pair_from_id(3, sample->index);
  EXPECT_EQ(e.normalized(), (graph::Edge{1, 2}));
}

TEST(Agm, WholeGraphMergeIsZero) {
  // Summing all vertices' sketches cancels every edge.
  const model::PublicCoins coins(2);
  util::Rng rng(3);
  const Graph g = graph::gnp(30, 0.2, rng);
  Sketched s = sketch_all(g, coins);
  for (unsigned round = 0; round < s.shape.rounds(); ++round) {
    const L0Sampler& sampler = s.shape.sampler(round);
    const auto sum = s.shape.sampler_state(s.shape.row(s.table, 0), round);
    for (Vertex v = 1; v < g.num_vertices(); ++v) {
      merge_states(sum, s.shape.sampler_state(s.shape.row(s.table, v), round));
    }
    EXPECT_TRUE(sampler.looks_zero(sum));
  }
}

TEST(Agm, SpanningForestOnConnectedGraphs) {
  util::Rng rng(4);
  int successes = 0;
  constexpr int kReps = 20;
  for (std::uint64_t rep = 0; rep < kReps; ++rep) {
    const model::PublicCoins coins(100 + rep);
    const Graph g = graph::gnp(40, 0.2, rng);
    const auto decode = forest_of(g, coins);
    if (graph::is_spanning_forest(g, decode.forest)) ++successes;
  }
  EXPECT_GE(successes, kReps - 2);  // w.h.p., small slack for sampler luck
}

TEST(Agm, SpanningForestOnDisconnectedGraph) {
  const model::PublicCoins coins(5);
  util::Rng rng(6);
  // Two cliques, no bridge.
  std::vector<graph::Edge> edges;
  for (Vertex u = 0; u < 10; ++u)
    for (Vertex v = u + 1; v < 10; ++v) edges.push_back({u, v});
  for (Vertex u = 10; u < 20; ++u)
    for (Vertex v = u + 1; v < 20; ++v) edges.push_back({u, v});
  const Graph g = Graph::from_edges(20, edges);
  const auto decode = forest_of(g, coins);
  EXPECT_TRUE(graph::is_spanning_forest(g, decode.forest));
  EXPECT_EQ(decode.components, 2u);
  EXPECT_EQ(decode.forest.size(), 18u);
}

TEST(Agm, PathAndCycleAndStar) {
  for (std::uint64_t shape = 0; shape < 3; ++shape) {
    const model::PublicCoins coins(300 + shape);
    Graph g(1);
    switch (shape) {
      case 0: g = graph::path(25); break;
      case 1: g = graph::cycle(25); break;
      default: {
        std::vector<graph::Edge> star;
        for (Vertex v = 1; v < 25; ++v) star.push_back({0, v});
        g = Graph::from_edges(25, star);
      }
    }
    const auto decode = forest_of(g, coins);
    EXPECT_TRUE(graph::is_spanning_forest(g, decode.forest))
        << "shape " << shape;
  }
}

TEST(Agm, TwoClustersWithBridgeFindsTheBridge) {
  // The motivating example: the forest must include the bridge.
  util::Rng rng(7);
  const model::PublicCoins coins(8);
  const auto [g, bridge] = graph::two_clusters_with_bridge(30, 0.4, rng);
  const auto decode = forest_of(g, coins);
  ASSERT_TRUE(graph::is_spanning_forest(g, decode.forest));
  bool has_bridge = false;
  for (const graph::Edge& e : decode.forest) {
    has_bridge |= e.normalized() == bridge.normalized();
  }
  EXPECT_TRUE(has_bridge);
}

TEST(Agm, SerializationRoundTripPreservesDecoding) {
  const model::PublicCoins coins(9);
  const Graph g = graph::cycle(12);
  const AgmSketch shape = AgmSketch::make(coins, 12);
  std::vector<std::uint64_t> restored(12 * shape.row_words());
  for (Vertex v = 0; v < 12; ++v) {
    std::vector<std::uint64_t> row(shape.row_words());
    shape.add_vertex_edges(row, v, g.neighbors(v));
    util::BitWriter w;
    write_states(row, w);
    EXPECT_EQ(w.bit_count(), shape.state_bits());
    const util::BitString bs(w);
    util::BitReader r(bs);
    read_states(shape.row(restored, v), r);
  }
  const auto decode = agm_spanning_forest(shape, restored);
  EXPECT_TRUE(graph::is_spanning_forest(g, decode.forest));
}

TEST(Agm, SketchSizeIsPolylog) {
  // State bits ~ rounds * levels * O(word): log^2 n words = O(log^3 n)
  // bits. Check the growth from n=64 to n=4096 is ~ (log ratio)^2-ish,
  // far below linear.
  const model::PublicCoins coins(10);
  const auto s64 = AgmSketch::make(coins, 64);
  const auto s4096 = AgmSketch::make(coins, 4096);
  EXPECT_LT(s4096.state_bits(), 4 * s64.state_bits());
  // Bits-per-vertex relative to n must fall sharply (polylog vs linear).
  EXPECT_LT(static_cast<double>(s4096.state_bits()) / 4096.0,
            0.1 * static_cast<double>(s64.state_bits()) / 64.0);
  // The size a stream ingest checks before building any state.
  EXPECT_EQ(agm_row_words(64, s64.rounds()), s64.row_words());
  EXPECT_EQ(agm_row_words(4096, 2),
            AgmSketch::make(coins, 4096, 2).row_words());
}

}  // namespace
}  // namespace ds::sketch
