// The wire/sim byte-accounting cross-check (ISSUE 3 acceptance
// criterion): for every protocol in the src/protocols/ zoo, one-round and
// multi-round alike, the sketches that arrive at the referee over the
// wire must equal the sketches the simulated engine run collects — round
// by round, per-player, BitString for BitString — and the CommStats
// computed from the wire payloads must match the simulated accounting bit
// for bit.  A full served session must reproduce model::run_protocol's
// output, per-round CommStats and broadcast charge.  Framing overhead is
// checked to be strictly separate: payload_bits alone equals the model
// total; framing_bits never leaks into it.  The referee here is one shard
// over loopback sockets; shard_audit_test.cpp repeats the audit at two.
#include <gtest/gtest.h>

#include <string_view>
#include <thread>

#include "engine/local_source.h"
#include "engine/round_engine.h"
#include "graph/generators.h"
#include "model/runner.h"
#include "protocols/bridge_finding.h"
#include "protocols/budgeted_two_round.h"
#include "protocols/coloring.h"
#include "protocols/luby_bcc.h"
#include "protocols/needle.h"
#include "protocols/sampled_matching.h"
#include "protocols/sampled_mis.h"
#include "protocols/sampling_zoo.h"
#include "protocols/spanning_forest.h"
#include "protocols/trivial.h"
#include "protocols/two_round_matching.h"
#include "protocols/two_round_mis.h"
#include "protocols/zoo.h"
#include "service/player_client.h"
#include "service/referee_service.h"
#include "wire/loopback.h"

namespace ds {
namespace {

using namespace std::chrono_literals;
using graph::Graph;
using graph::Vertex;

Graph test_graph(std::uint64_t seed = 7, Vertex n = 26, double p = 0.25) {
  util::Rng rng(seed);
  return graph::gnp(n, p, rng);
}

/// `players` loopback clients of a one-shard referee.
struct LoopbackCluster {
  service::RefereeService referee;
  std::vector<std::unique_ptr<wire::Link>> players;
};

LoopbackCluster make_cluster(std::size_t players) {
  std::vector<std::unique_ptr<wire::Link>> referee_links;
  std::vector<std::unique_ptr<wire::Link>> player_links;
  for (std::size_t i = 0; i < players; ++i) {
    wire::LoopbackPair pair = wire::make_loopback_pair();
    referee_links.push_back(std::move(pair.referee_side));
    player_links.push_back(std::move(pair.player_side));
  }
  return {service::RefereeService(std::move(referee_links), 0),
          std::move(player_links)};
}

void expect_same_sketches(std::span<const util::BitString> wire_sketches,
                          std::span<const util::BitString> sim_sketches,
                          const std::string& name) {
  ASSERT_EQ(wire_sketches.size(), sim_sketches.size()) << name;
  for (std::size_t v = 0; v < sim_sketches.size(); ++v) {
    EXPECT_EQ(wire_sketches[v].bit_count(), sim_sketches[v].bit_count())
        << name << ": player " << v << " payload length drifted";
    EXPECT_EQ(wire_sketches[v].words(), sim_sketches[v].words())
        << name << ": player " << v << " payload bits drifted";
  }
}

void expect_same_comm(const model::CommStats& wire_comm,
                      const model::CommStats& sim_comm,
                      const std::string& name) {
  EXPECT_EQ(wire_comm.max_bits, sim_comm.max_bits) << name;
  EXPECT_EQ(wire_comm.total_bits, sim_comm.total_bits) << name;
  EXPECT_EQ(wire_comm.num_players, sim_comm.num_players) << name;
}

/// The simulated transcript: every round's sketches and broadcasts from
/// the in-process engine run.
template <typename Output>
engine::EngineResult<Output> simulate(const Graph& g,
                                      const model::Protocol<Output>& protocol,
                                      const model::PublicCoins& coins) {
  auto source = engine::make_local_source(
      g.num_vertices(), engine::graph_view_fn(g, coins), protocol);
  engine::PlainInstrumentation plain;
  return engine::run_rounds(g.num_vertices(), protocol, coins, source,
                            plain);
}

/// The cross-check core.  First ship every round of the protocol's
/// sketches through a loopback session (players sharded over two links)
/// and compare what the referee collected against the simulated
/// transcript; then serve a whole session and compare it against
/// model::run_protocol.
template <typename Output>
void expect_wire_equals_sim(const Graph& g,
                            const model::Protocol<Output>& protocol,
                            std::uint64_t seed) {
  const model::PublicCoins coins(seed);
  const std::string name = protocol.name();
  constexpr std::size_t kPlayers = 2;
  const engine::EngineResult<Output> transcript =
      simulate(g, protocol, coins);
  {
    LoopbackCluster cluster = make_cluster(kPlayers);
    service::ShardedWireSource source(cluster.referee.links(),
                                      g.num_vertices(),
                                      wire::protocol_id(name), 2000ms);
    for (unsigned round = 0; round < protocol.num_rounds(); ++round) {
      const auto seen = std::span(transcript.broadcasts).first(round);
      for (std::size_t i = 0; i < kPlayers; ++i) {
        (void)service::send_sketches(
            *cluster.players[i], g,
            service::shard_vertices(g.num_vertices(), kPlayers, i),
            protocol, coins, round, seen);
      }
      const std::vector<util::BitString> sketches =
          source.collect(round, seen);
      const std::string label = name + " round " + std::to_string(round);
      expect_same_sketches(sketches, transcript.all_rounds[round], label);
      expect_same_comm(service::comm_from_sketches(sketches),
                       transcript.by_round[round], label);
    }
    // The accounting contract itself: payload alone is the model cost;
    // framing is real but never part of it.
    EXPECT_EQ(source.uplink().payload_bits, transcript.comm.total_bits)
        << name;
    EXPECT_EQ(source.uplink().rejected_frames, 0u) << name;
    EXPECT_GT(source.uplink().framing_bits, 0u) << name;
  }

  LoopbackCluster cluster = make_cluster(kPlayers);
  std::vector<std::thread> threads;
  threads.reserve(kPlayers);
  for (std::size_t i = 0; i < kPlayers; ++i) {
    threads.emplace_back([&, i] {
      (void)service::play_protocol(
          *cluster.players[i], g,
          service::shard_vertices(g.num_vertices(), kPlayers, i), protocol,
          coins, 5000ms);
    });
  }
  const service::ServeResult<Output> served =
      service::serve_protocol(cluster.referee.links(), protocol,
                              g.num_vertices(), coins, 5000ms);
  for (std::thread& t : threads) t.join();

  const auto sim = model::run_protocol(g, protocol, coins);
  EXPECT_TRUE(served.output == sim.output) << name;
  expect_same_comm(served.comm, sim.comm, name);
  EXPECT_EQ(served.broadcast_bits, sim.broadcast_bits) << name;
  ASSERT_EQ(served.by_round.size(), sim.by_round.size()) << name;
  for (std::size_t r = 0; r < served.by_round.size(); ++r) {
    expect_same_comm(served.by_round[r], sim.by_round[r],
                     name + " round " + std::to_string(r));
  }
  EXPECT_EQ(served.uplink.payload_bits, sim.comm.total_bits) << name;
}

TEST(WireAudit, SketchingProtocolZooPayloadsMatchSimulation) {
  const Graph g = test_graph(21);
  expect_wire_equals_sim(g, protocols::AgmSpanningForest{}, 101);
  expect_wire_equals_sim(g, protocols::TrivialMaximalMatching{}, 102);
  expect_wire_equals_sim(g, protocols::TrivialMis{}, 103);
  expect_wire_equals_sim(g, protocols::BudgetedMatching{64}, 104);
  expect_wire_equals_sim(g, protocols::BudgetedMis{64}, 105);
  expect_wire_equals_sim(g, protocols::BridgeFinding{4}, 106);
  expect_wire_equals_sim(g, protocols::NeedleTwoSided{13}, 107);
  expect_wire_equals_sim(g, protocols::NeedleOneSided{13, 48}, 108);
  expect_wire_equals_sim(g, protocols::AgmConnectivity{}, 109);
  expect_wire_equals_sim(g, protocols::KConnectivityCertificate{2}, 110);
  expect_wire_equals_sim(
      g, protocols::PaletteSparsificationColoring{16, 6}, 111);
  expect_wire_equals_sim(g, protocols::EdgeCountEstimate{8}, 112);
  expect_wire_equals_sim(g, protocols::SampledSubgraph{0.5}, 113);
  expect_wire_equals_sim(g, protocols::SampledDegeneracy{0.5}, 114);
}

TEST(WireAudit, WeightedProtocolPayloadsMatchSimulation) {
  util::Rng rng(51);
  const Graph topo = graph::gnp(16, 0.3, rng);
  std::vector<graph::WeightedEdge> wedges;
  for (const graph::Edge& e : topo.edges()) {
    wedges.push_back(
        {e.u, e.v, static_cast<std::uint32_t>(1 + rng.next_below(3))});
  }
  const graph::WeightedGraph wg =
      graph::WeightedGraph::from_edges(16, wedges);
  const protocols::MstWeight protocol{3};
  const model::PublicCoins coins(401);

  model::CommStats sim_comm;
  const std::vector<util::BitString> sim_sketches =
      model::collect_sketches(wg, protocol, coins, sim_comm);

  LoopbackCluster cluster = make_cluster(2);
  for (std::size_t i = 0; i < 2; ++i) {
    (void)service::send_sketches(
        *cluster.players[i], wg,
        service::shard_vertices(wg.num_vertices(), 2, i), protocol, coins);
  }
  service::ShardedWireSource source(cluster.referee.links(),
                                    wg.num_vertices(),
                                    wire::protocol_id(protocol.name()),
                                    2000ms);
  const std::vector<util::BitString> sketches = source.collect(0, {});

  expect_same_sketches(sketches, sim_sketches, protocol.name());
  expect_same_comm(service::comm_from_sketches(sketches), sim_comm,
                   protocol.name());
  EXPECT_EQ(source.uplink().payload_bits, sim_comm.total_bits);
}

TEST(WireAudit, AdaptiveProtocolPayloadsMatchSimulation) {
  const Graph g = test_graph(31, 20, 0.3);
  expect_wire_equals_sim(g, protocols::TwoRoundMatching{4, 8}, 201);
  expect_wire_equals_sim(g, protocols::TwoRoundMis{0.3, 8}, 202);
  expect_wire_equals_sim(g, protocols::BudgetedTwoRoundMatching{48, 48},
                         203);
  expect_wire_equals_sim(g, protocols::make_luby_bcc(g.num_vertices()), 204);
}

}  // namespace
}  // namespace ds
