// Assorted edge cases across modules that no focused suite covers.
#include <gtest/gtest.h>

#include "graph/densest.h"
#include "graph/generators.h"
#include "lowerbound/dmm.h"
#include "lowerbound/players.h"
#include "model/runner.h"
#include "protocols/zoo.h"
#include "rs/rs_graph.h"
#include "stream/dynamic_stream.h"
#include "util/hashing.h"

namespace ds {
namespace {

TEST(EdgeCases, DmmWithSingleCopy) {
  // k = 1: no sharing across copies, but the machinery must still work.
  const rs::RsGraph base = rs::book_rs(2, 3);
  util::Rng rng(2);
  const lowerbound::DmmInstance inst = lowerbound::sample_dmm(base, 1, rng);
  EXPECT_EQ(inst.params.k, 1u);
  EXPECT_EQ(inst.params.n, inst.params.big_n);  // N - 2r + 2r
  EXPECT_EQ(inst.special_full.size(), 1u);
  const auto players = lowerbound::build_refined_players(inst);
  EXPECT_EQ(players.size(),
            inst.params.num_public() + inst.params.big_n);
}

TEST(EdgeCases, ZooProtocolsOnEdgelessGraph) {
  const graph::Graph g(10);
  const model::PublicCoins coins(3);
  EXPECT_EQ(model::run_protocol(g, protocols::AgmConnectivity{}, coins).output,
            10u);
  EXPECT_TRUE(model::run_protocol(g, protocols::KConnectivityCertificate{2},
                                  coins)
                  .output.empty());
}

TEST(EdgeCases, MstWeightOnEdgelessWeightedGraph) {
  const graph::WeightedGraph g(6);
  const model::PublicCoins coins(4);
  EXPECT_EQ(model::run_protocol(g, protocols::MstWeight{3}, coins).output,
            0u);
}

TEST(EdgeCases, DynamicConnectivityReinsertAfterDelete) {
  stream::DynamicConnectivity s(6, 5);
  s.insert(0, 1);
  s.remove(0, 1);
  s.insert(0, 1);  // net: present
  s.insert(2, 3);
  EXPECT_EQ(s.query_components(), 4u);  // {0,1},{2,3},{4},{5}
}

TEST(EdgeCases, DegeneracyOrderOnEmptyGraph) {
  EXPECT_TRUE(graph::degeneracy_order(graph::Graph(0)).empty());
  EXPECT_EQ(graph::degeneracy_order(graph::Graph(3)).size(), 3u);
}

TEST(EdgeCases, CycleRsAsDmmSubstrate) {
  // The C_{2t} family through the full D_MM pipeline.
  const rs::RsGraph base = rs::cycle_rs(4);
  util::Rng rng(6);
  const lowerbound::DmmInstance inst =
      lowerbound::sample_dmm(base, base.t(), rng);
  EXPECT_EQ(inst.params.r, 2u);
  for (const auto& m : inst.special_surviving) {
    for (const graph::Edge& e : m) {
      EXPECT_TRUE(inst.g.has_edge(e.u, e.v));
      EXPECT_FALSE(inst.is_public[e.u]);
      EXPECT_FALSE(inst.is_public[e.v]);
    }
  }
}

TEST(EdgeCases, SubsampleOfEmptyGraph) {
  util::Rng rng(7);
  EXPECT_EQ(graph::subsample_edges(graph::Graph(4), 0.5, rng).num_edges(),
            0u);
}

TEST(EdgeCases, BitWidthConsistencyAtPowersOfTwo) {
  for (unsigned k = 1; k < 20; ++k) {
    const std::uint64_t n = std::uint64_t{1} << k;
    EXPECT_EQ(util::bit_width_for(n), k);
    EXPECT_EQ(util::bit_width_for(n + 1), k + 1);
  }
}

}  // namespace
}  // namespace ds
