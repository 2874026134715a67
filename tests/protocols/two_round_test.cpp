#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.h"
#include "graph/independent_set.h"
#include "graph/matching.h"
#include "model/runner.h"
#include "protocols/two_round_matching.h"
#include "protocols/two_round_mis.h"

namespace ds::protocols {
namespace {

using graph::Graph;

TEST(TwoRoundMatching, MaximalOnRandomGraphs) {
  util::Rng rng(1);
  int successes = 0;
  constexpr int kReps = 15;
  for (std::uint64_t rep = 0; rep < kReps; ++rep) {
    const Graph g = graph::gnp(80, 0.1, rng);
    const model::PublicCoins coins(400 + rep);
    const std::size_t c = static_cast<std::size_t>(std::sqrt(80.0)) + 2;
    const auto result =
        model::run_protocol(g, TwoRoundMatching{c, 80}, coins);
    if (graph::is_maximal_matching(g, result.output)) ++successes;
  }
  EXPECT_GE(successes, kReps - 1);
}

TEST(TwoRoundMatching, OutputIsAlwaysValidMatching) {
  util::Rng rng(2);
  for (std::uint64_t rep = 0; rep < 10; ++rep) {
    const Graph g = graph::gnp(60, 0.2, rng);
    const model::PublicCoins coins(500 + rep);
    const auto result = model::run_protocol(g, TwoRoundMatching{4, 10}, coins);
    EXPECT_TRUE(graph::is_valid_matching(g, result.output));
  }
}

TEST(TwoRoundMatching, DenseGraphsStayCheapPerPlayer) {
  // On a clique, round 0 is capped at c edges and round 1 is nearly empty
  // (almost everyone is matched): per-player bits ~ c*log n, not n.
  const Graph g = graph::complete(64);
  const model::PublicCoins coins(3);
  const auto result = model::run_protocol(g, TwoRoundMatching{8, 64}, coins);
  EXPECT_TRUE(graph::is_maximal_matching(g, result.output));
  EXPECT_LT(result.comm.max_bits, 64u * 3);  // << 64 * log2(64) raw edges
}

TEST(TwoRoundMatching, HandlesEmptyGraph) {
  const Graph g(10);
  const model::PublicCoins coins(4);
  const auto result = model::run_protocol(g, TwoRoundMatching{4, 10}, coins);
  EXPECT_TRUE(result.output.empty());
}

TEST(TwoRoundMis, MaximalOnRandomGraphs) {
  util::Rng rng(5);
  int successes = 0;
  constexpr int kReps = 15;
  for (std::uint64_t rep = 0; rep < kReps; ++rep) {
    const Graph g = graph::gnp(80, 0.08, rng);
    const model::PublicCoins coins(600 + rep);
    const auto result =
        model::run_protocol(g, TwoRoundMis{0.35, 200}, coins);
    if (graph::is_maximal_independent_set(g, result.output)) ++successes;
  }
  EXPECT_GE(successes, kReps - 1);
}

TEST(TwoRoundMis, IndependenceNeverViolatedWithoutCapPressure) {
  // With an uncapped round 1 the output must be exactly an MIS: the
  // referee has full knowledge of the undominated subgraph.
  util::Rng rng(6);
  for (std::uint64_t rep = 0; rep < 10; ++rep) {
    const Graph g = graph::gnp(50, 0.15, rng);
    const model::PublicCoins coins(700 + rep);
    const auto result =
        model::run_protocol(g, TwoRoundMis{0.3, 100000}, coins);
    EXPECT_TRUE(graph::is_maximal_independent_set(g, result.output))
        << "rep " << rep;
  }
}

TEST(TwoRoundMis, MarkIsSharedPublicCoin) {
  const model::PublicCoins coins(7);
  for (graph::Vertex v = 0; v < 50; ++v) {
    EXPECT_EQ(TwoRoundMis::is_marked(coins, v, 0.5),
              TwoRoundMis::is_marked(coins, v, 0.5));
  }
}

TEST(TwoRoundMis, StructuredGraphs) {
  const model::PublicCoins coins(8);
  for (const Graph& g : {graph::path(30), graph::cycle(30),
                         graph::complete(20)}) {
    const auto result =
        model::run_protocol(g, TwoRoundMis{0.5, 100000}, coins);
    EXPECT_TRUE(graph::is_maximal_independent_set(g, result.output));
  }
}

TEST(TwoRoundMis, EdgelessGraphTakesAllVertices) {
  const Graph g(12);
  const model::PublicCoins coins(9);
  const auto result = model::run_protocol(g, TwoRoundMis{0.3, 10}, coins);
  EXPECT_EQ(result.output.size(), 12u);
}

}  // namespace
}  // namespace ds::protocols
