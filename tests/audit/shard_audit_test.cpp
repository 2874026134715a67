// The sharded wire/sim byte-accounting cross-check: everything the
// one-shard audit (wire_audit_test.cpp) asserts, re-proven over a
// two-shard epoll referee — per-player payloads BitString for BitString
// in every round, CommStats bit for bit, per-round breakdowns included.
//
// This is the audit that keeps the combiner honest: if shard merging
// ever reordered, double-charged, or dropped a payload, one of these
// zoo sweeps would catch the drift against the simulated engine run and
// model::run_protocol, whose accounting is the spec.
#include <gtest/gtest.h>

#include <sys/socket.h>

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
#include "service/shard.h"
#include "wire/tcp.h"

namespace ds {
namespace {

using namespace std::chrono_literals;
using graph::Graph;
using graph::Vertex;

constexpr std::size_t kShards = 2;
constexpr std::size_t kPlayers = 3;

Graph test_graph(std::uint64_t seed = 7, Vertex n = 26, double p = 0.25) {
  util::Rng rng(seed);
  return graph::gnp(n, p, rng);
}

/// kPlayers socketpair connections dealt round-robin onto kShards shard
/// event loops; the player ends stay blocking wire::Links.
struct ShardedCluster {
  std::vector<std::unique_ptr<service::RefereeShard>> shards;
  std::vector<std::unique_ptr<wire::Link>> players;
};

ShardedCluster make_cluster() {
  ShardedCluster cluster;
  for (std::size_t s = 0; s < kShards; ++s) {
    cluster.shards.push_back(
        std::make_unique<service::RefereeShard>(s, kShards));
  }
  for (std::size_t i = 0; i < kPlayers; ++i) {
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw std::runtime_error("socketpair failed");
    }
    (void)cluster.shards[i % kShards]->adopt_fd(fds[0]);
    cluster.players.push_back(wire::tcp_adopt_fd(fds[1]));
  }
  return cluster;
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

/// The cross-check core.  First, round by round, players send through
/// blocking links into the shard loops, and the ShardedWireSource's
/// combined round, collected by the shards' worker threads, must
/// reproduce the simulated transcript exactly.  Then the full two-shard
/// serve_protocol session (combiner, event-loop broadcasts) must
/// reproduce model::run_protocol, at the referee and at every player.
template <typename Output>
void expect_sharded_equals_sim(const Graph& g,
                               const model::Protocol<Output>& protocol,
                               std::uint64_t seed) {
  const model::PublicCoins coins(seed);
  const std::string name = protocol.name();
  const engine::EngineResult<Output> transcript =
      simulate(g, protocol, coins);
  {
    ShardedCluster cluster = make_cluster();
    service::ShardedWireSource source(cluster.shards, g.num_vertices(),
                                      wire::protocol_id(name), 2000ms);
    for (unsigned round = 0; round < protocol.num_rounds(); ++round) {
      const auto seen = std::span(transcript.broadcasts).first(round);
      for (std::size_t i = 0; i < kPlayers; ++i) {
        (void)service::send_sketches(
            *cluster.players[i], g,
            service::shard_vertices(g.num_vertices(), kPlayers, i),
            protocol, coins, round, seen);
      }
      const std::vector<util::BitString> collected =
          source.collect(round, seen);
      const std::string label = name + " round " + std::to_string(round);
      expect_same_sketches(collected, transcript.all_rounds[round], label);
      expect_same_comm(service::comm_from_sketches(collected),
                       transcript.by_round[round], label);
    }
    EXPECT_EQ(source.uplink().payload_bits, transcript.comm.total_bits)
        << name;
    EXPECT_EQ(source.uplink().rejected_frames, 0u) << name;
    EXPECT_GT(source.uplink().framing_bits, 0u) << name;
  }

  const auto sim = model::run_protocol(g, protocol, coins);
  ShardedCluster cluster = make_cluster();
  std::vector<std::thread> threads;
  std::vector<Output> player_results(kPlayers);
  threads.reserve(kPlayers);
  for (std::size_t i = 0; i < kPlayers; ++i) {
    threads.emplace_back([&, i] {
      player_results[i] = service::play_protocol(
          *cluster.players[i], g,
          service::shard_vertices(g.num_vertices(), kPlayers, i), protocol,
          coins, 5000ms);
    });
  }
  const service::ServeResult<Output> served = service::serve_protocol(
      cluster.shards, protocol, g.num_vertices(), coins, 5000ms);
  for (std::thread& t : threads) t.join();

  EXPECT_TRUE(served.output == sim.output) << name;
  expect_same_comm(served.comm, sim.comm, name);
  EXPECT_EQ(served.broadcast_bits, sim.broadcast_bits) << name;
  ASSERT_EQ(served.by_round.size(), sim.by_round.size()) << name;
  for (std::size_t r = 0; r < served.by_round.size(); ++r) {
    expect_same_comm(served.by_round[r], sim.by_round[r],
                     name + " round " + std::to_string(r));
  }
  EXPECT_EQ(served.uplink.payload_bits, sim.comm.total_bits) << name;
  for (const Output& result : player_results) {
    EXPECT_TRUE(result == sim.output) << name;
  }
}

TEST(ShardAudit, SketchingProtocolZooPayloadsMatchSimulation) {
  const Graph g = test_graph(21);
  expect_sharded_equals_sim(g, protocols::AgmSpanningForest{}, 101);
  expect_sharded_equals_sim(g, protocols::TrivialMaximalMatching{}, 102);
  expect_sharded_equals_sim(g, protocols::TrivialMis{}, 103);
  expect_sharded_equals_sim(g, protocols::BudgetedMatching{64}, 104);
  expect_sharded_equals_sim(g, protocols::BudgetedMis{64}, 105);
  expect_sharded_equals_sim(g, protocols::BridgeFinding{4}, 106);
  expect_sharded_equals_sim(g, protocols::NeedleTwoSided{13}, 107);
  expect_sharded_equals_sim(g, protocols::NeedleOneSided{13, 48}, 108);
  expect_sharded_equals_sim(g, protocols::AgmConnectivity{}, 109);
  expect_sharded_equals_sim(g, protocols::KConnectivityCertificate{2}, 110);
  expect_sharded_equals_sim(
      g, protocols::PaletteSparsificationColoring{16, 6}, 111);
  expect_sharded_equals_sim(g, protocols::EdgeCountEstimate{8}, 112);
  expect_sharded_equals_sim(g, protocols::SampledSubgraph{0.5}, 113);
  expect_sharded_equals_sim(g, protocols::SampledDegeneracy{0.5}, 114);
}

TEST(ShardAudit, AdaptiveProtocolPayloadsMatchSimulation) {
  const Graph g = test_graph(31, 20, 0.3);
  expect_sharded_equals_sim(g, protocols::TwoRoundMatching{4, 8}, 201);
  expect_sharded_equals_sim(g, protocols::TwoRoundMis{0.3, 8}, 202);
  expect_sharded_equals_sim(g, protocols::BudgetedTwoRoundMatching{48, 48},
                            203);
  expect_sharded_equals_sim(g, protocols::make_luby_bcc(g.num_vertices()),
                            204);
}

}  // namespace
}  // namespace ds
