#include "protocols/luby_bcc.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/independent_set.h"
#include "model/runner.h"

namespace ds::protocols {
namespace {

using graph::Graph;
using graph::Vertex;

TEST(LubyBcc, ProducesMisOnRandomGraphs) {
  util::Rng rng(1);
  for (std::uint64_t rep = 0; rep < 10; ++rep) {
    const Graph g = graph::gnp(60, 0.1, rng);
    const model::PublicCoins coins(100 + rep);
    const auto protocol = make_luby_bcc(g.num_vertices());
    const auto run = model::run_protocol(g, protocol, coins);
    EXPECT_TRUE(graph::is_maximal_independent_set(g, run.output))
        << "rep " << rep;
  }
}

TEST(LubyBcc, StructuredGraphs) {
  const model::PublicCoins coins(2);
  for (const Graph& g :
       {graph::path(30), graph::cycle(31), graph::complete(12), Graph(9)}) {
    const auto protocol = make_luby_bcc(std::max<Vertex>(g.num_vertices(), 2));
    const auto run = model::run_protocol(g, protocol, coins);
    EXPECT_TRUE(graph::is_maximal_independent_set(g, run.output));
  }
}

TEST(LubyBcc, PerPlayerCostIsTwoBitsPerPhase) {
  util::Rng rng(3);
  const Graph g = graph::gnp(100, 0.08, rng);
  const model::PublicCoins coins(4);
  const auto protocol = make_luby_bcc(100);
  const auto run = model::run_protocol(g, protocol, coins);
  EXPECT_TRUE(graph::is_maximal_independent_set(g, run.output));
  // Exactly one bit per round per player.
  EXPECT_EQ(run.comm.max_bits, protocol.num_rounds());
  for (const auto& round : run.by_round) {
    EXPECT_EQ(round.max_bits, 1u);
  }
}

TEST(LubyBcc, TotalBitsAreLogarithmicNotSqrt) {
  // The rounds-vs-bits tradeoff: O(log n) rounds at O(log n) total bits,
  // far below the one-round sqrt(n) wall and the two-round sqrt(n) cost.
  util::Rng rng(5);
  const Graph g = graph::gnp(400, 0.02, rng);
  const model::PublicCoins coins(6);
  const auto protocol = make_luby_bcc(400);
  const auto run = model::run_protocol(g, protocol, coins);
  EXPECT_TRUE(graph::is_maximal_independent_set(g, run.output));
  EXPECT_LT(run.comm.max_bits, 64u);  // ~2 * (2 log2 400 + 4) bits
}

TEST(LubyBcc, PrioritiesArePublicCoinShared) {
  const model::PublicCoins coins(7);
  for (Vertex v = 0; v < 10; ++v) {
    for (unsigned phase = 0; phase < 5; ++phase) {
      EXPECT_EQ(LubyBroadcastMis::priority(coins, v, phase),
                LubyBroadcastMis::priority(coins, v, phase));
    }
  }
  EXPECT_NE(LubyBroadcastMis::priority(coins, 1, 1),
            LubyBroadcastMis::priority(coins, 1, 2));
}

TEST(LubyBcc, TooFewPhasesDegradesGracefully) {
  // With one phase the output is an independent set (one Luby step) but
  // rarely maximal on a large sparse graph.
  util::Rng rng(8);
  const Graph g = graph::gnp(80, 0.05, rng);
  const model::PublicCoins coins(9);
  const LubyBroadcastMis protocol(1);
  const auto run = model::run_protocol(g, protocol, coins);
  EXPECT_TRUE(graph::is_independent_set(g, run.output));
  EXPECT_FALSE(graph::is_maximal_independent_set(g, run.output));
}

}  // namespace
}  // namespace ds::protocols
