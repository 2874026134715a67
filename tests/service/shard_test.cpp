// The sharded referee.
//
// Two layers under test: (1) the shard vocabulary — shard_range tiling
// and the combiner's deterministic cross-shard duplicate resolution;
// (2) the referee at several shard counts end to end over socketpair
// connections, bit-identical to the in-process runner.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "model/runner.h"
#include "protocols/spanning_forest.h"
#include "protocols/two_round_matching.h"
#include "protocols/zoo.h"
#include "service/player_client.h"
#include "service/referee_service.h"
#include "service/shard.h"
#include "wire/tcp.h"

namespace ds {
namespace {

using namespace std::chrono_literals;

constexpr std::uint64_t kCoinSeed = 2020;

graph::Graph test_graph(graph::Vertex n, std::uint64_t seed,
                        double p = 0.15) {
  util::Rng rng(seed);
  return graph::gnp(n, p, rng);
}

// ---------------------------------------------------------------------
// shard_range and the combiner.
// ---------------------------------------------------------------------

TEST(ShardRange, TilesTheVertexSpaceContiguously) {
  for (const graph::Vertex n : {1u, 7u, 16u, 97u}) {
    for (const std::size_t parts : {1u, 2u, 3u, 8u}) {
      graph::Vertex expect_lo = 0;
      for (std::size_t i = 0; i < parts; ++i) {
        const auto [lo, hi] = service::shard_range(n, parts, i);
        EXPECT_EQ(lo, expect_lo);
        EXPECT_GE(hi, lo);
        // Sizes differ by at most one across shards.
        EXPECT_LE(hi - lo, n / parts + 1);
        expect_lo = hi;
      }
      EXPECT_EQ(expect_lo, n);
    }
  }
}

TEST(ShardRange, AgreesWithPlayerShardVertices) {
  const graph::Vertex n = 23;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto [lo, hi] = service::shard_range(n, 4, i);
    const std::vector<graph::Vertex> owned =
        service::shard_vertices(n, 4, i);
    ASSERT_EQ(owned.size(), static_cast<std::size_t>(hi - lo));
    if (!owned.empty()) {
      EXPECT_EQ(owned.front(), lo);
      EXPECT_EQ(owned.back(), hi - 1);
    }
  }
}

util::BitString bits_of(std::uint64_t value, unsigned width) {
  util::BitWriter w;
  w.put_bits(value, width);
  return util::BitString(std::move(w));
}

/// A shard's collector holding `verts`, each with the 8-bit payload
/// (v + 1) ^ tag, fed through the acceptance rule as one message.
service::RoundCollector make_shard_round(const service::RoundSpec& spec,
                                         std::vector<graph::Vertex> verts,
                                         std::uint64_t tag = 0) {
  service::RoundCollector r(spec);
  std::vector<std::uint8_t> message;
  for (const graph::Vertex v : verts) {
    (void)service::append_sketch_frame(message, spec.protocol_id, v,
                                       spec.round, bits_of((v + 1) ^ tag, 8));
  }
  (void)r.offer_message(message, "conn", 0);
  return r;
}

TEST(CombineShardRounds, MergesDisjointShardsCompletely) {
  const service::RoundSpec spec{6, 42, 0};
  std::vector<service::RoundCollector> rounds;
  rounds.push_back(make_shard_round(spec, {0, 1, 2}));
  rounds.push_back(make_shard_round(spec, {3, 4, 5}));

  const service::CollectedRound out = service::combine_shard_rounds(rounds);
  ASSERT_EQ(out.sketches.size(), 6u);
  EXPECT_EQ(out.wire.frames, 6u);
  EXPECT_EQ(out.wire.messages, 2u);
  EXPECT_EQ(out.wire.rejected_frames, 0u);
  for (graph::Vertex v = 0; v < 6; ++v) {
    EXPECT_EQ(out.sketches[v].bit_count(), 8u) << "vertex " << v;
  }
}

TEST(CombineShardRounds, CrossShardDuplicateResolvesToLowestShard) {
  // Vertex 2 accepted by both shards with different payloads: the
  // combiner must keep shard 0's copy (deterministic, independent of
  // collection timing) and re-account shard 1's as a rejection, leaving
  // the totals exactly what a single referee would have recorded.
  const service::RoundSpec spec{4, 42, 0};
  std::vector<service::RoundCollector> rounds;
  rounds.push_back(make_shard_round(spec, {0, 1, 2}));
  rounds.push_back(make_shard_round(spec, {2, 3}, /*tag=*/0xF0));

  const service::CollectedRound out = service::combine_shard_rounds(rounds);
  EXPECT_EQ(out.wire.frames, 4u);  // the duplicate is not double-counted
  EXPECT_EQ(out.wire.rejected_frames, 1u);
  EXPECT_EQ(out.wire.payload_bits, 4u * 8u);
  ASSERT_EQ(out.rejects.size(), 1u);
  EXPECT_EQ(out.rejects[0].reason, service::RejectReason::kDuplicate);
  EXPECT_NE(out.rejects[0].detail.find("cross-shard"), std::string::npos);
  EXPECT_NE(out.rejects[0].detail.find("shard 1"), std::string::npos);
  // Shard 0 wrote v+1 = 3; shard 1's 3 ^ 0xF0 lost.
  EXPECT_EQ(out.sketches[2].words()[0], 3u);
}

TEST(CombineShardRounds, MissingVertexIsACleanDeadlineError) {
  const service::RoundSpec spec{5, 42, 0};
  std::vector<service::RoundCollector> rounds;
  rounds.push_back(make_shard_round(spec, {0, 1}));
  rounds.push_back(make_shard_round(spec, {3, 4}));  // vertex 2 missing
  EXPECT_THROW((void)service::combine_shard_rounds(rounds),
               service::ServiceError);
}

// ---------------------------------------------------------------------
// The sharded service end to end (socketpair connections: the referee
// side adopted into shard event loops, the player side a blocking
// wire::Link — exactly the mixed deployment docs/WIRE.md promises works).
// ---------------------------------------------------------------------

struct ShardedCluster {
  service::RefereeService referee;
  std::vector<std::unique_ptr<wire::Link>> players;

  ShardedCluster(std::size_t shards, std::size_t num_players,
                 std::uint64_t coin_seed,
                 std::chrono::milliseconds timeout)
      : referee(shards, coin_seed, timeout) {
    for (std::size_t i = 0; i < num_players; ++i) {
      int fds[2] = {-1, -1};
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        throw std::runtime_error("socketpair failed");
      }
      (void)referee.adopt_fd(fds[0]);
      players.push_back(wire::tcp_adopt_fd(fds[1]));
    }
  }
};

TEST(ShardedReferee, TwoShardsMatchInProcessRunnerExactly) {
  const graph::Graph g = test_graph(40, 1);
  const protocols::AgmSpanningForest protocol;
  const model::PublicCoins coins(kCoinSeed);
  constexpr std::size_t kPlayers = 4;

  ShardedCluster cluster(2, kPlayers, kCoinSeed, 5000ms);
  std::vector<std::thread> threads;
  std::vector<model::ForestOutput> player_results(kPlayers);
  threads.reserve(kPlayers);
  for (std::size_t i = 0; i < kPlayers; ++i) {
    threads.emplace_back([&, i] {
      const std::vector<graph::Vertex> owned =
          service::shard_vertices(g.num_vertices(), kPlayers, i);
      player_results[i] = service::play_protocol(
          *cluster.players[i], g, owned, protocol, coins, 5000ms);
    });
  }
  const service::ServeResult<model::ForestOutput> served =
      cluster.referee.run(protocol, g.num_vertices());
  for (std::thread& t : threads) t.join();

  const auto simulated = model::run_protocol(g, protocol, coins);
  EXPECT_EQ(served.output, simulated.output);
  EXPECT_EQ(served.comm.max_bits, simulated.comm.max_bits);
  EXPECT_EQ(served.comm.total_bits, simulated.comm.total_bits);
  EXPECT_EQ(served.comm.num_players, simulated.comm.num_players);
  EXPECT_EQ(served.uplink.payload_bits, simulated.comm.total_bits);
  EXPECT_EQ(served.uplink.frames, g.num_vertices());
  EXPECT_EQ(served.uplink.rejected_frames, 0u);
  for (const model::ForestOutput& result : player_results) {
    EXPECT_EQ(result, simulated.output);
  }
}

TEST(ShardedReferee, AdaptiveTwoRoundOverFourShards) {
  const graph::Graph g = test_graph(36, 3, 0.2);
  const protocols::TwoRoundMatching protocol{4, 8};
  const model::PublicCoins coins(kCoinSeed);
  constexpr std::size_t kPlayers = 4;

  ShardedCluster cluster(4, kPlayers, kCoinSeed, 5000ms);
  std::vector<std::thread> threads;
  std::vector<model::MatchingOutput> player_results(kPlayers);
  threads.reserve(kPlayers);
  for (std::size_t i = 0; i < kPlayers; ++i) {
    threads.emplace_back([&, i] {
      const std::vector<graph::Vertex> owned =
          service::shard_vertices(g.num_vertices(), kPlayers, i);
      player_results[i] = service::play_protocol(
          *cluster.players[i], g, owned, protocol, coins, 5000ms);
    });
  }
  const service::ServeResult<model::MatchingOutput> served =
      cluster.referee.run(protocol, g.num_vertices());
  for (std::thread& t : threads) t.join();

  const auto simulated = model::run_protocol(g, protocol, coins);
  EXPECT_EQ(served.output, simulated.output);
  EXPECT_EQ(served.comm.max_bits, simulated.comm.max_bits);
  EXPECT_EQ(served.comm.total_bits, simulated.comm.total_bits);
  EXPECT_EQ(served.broadcast_bits, simulated.broadcast_bits);
  ASSERT_EQ(served.by_round.size(), simulated.by_round.size());
  for (std::size_t r = 0; r < served.by_round.size(); ++r) {
    EXPECT_EQ(served.by_round[r].total_bits,
              simulated.by_round[r].total_bits);
  }
  for (const model::MatchingOutput& result : player_results) {
    EXPECT_EQ(result, simulated.output);
  }
}

TEST(ShardedReferee, MoreShardsThanConnectionsStillCompletes) {
  // Empty shards must idle harmlessly while the populated ones carry
  // the round.
  const graph::Graph g = test_graph(12, 4, 0.3);
  const protocols::AgmConnectivity protocol;
  const model::PublicCoins coins(kCoinSeed);

  ShardedCluster cluster(6, 2, kCoinSeed, 5000ms);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      const std::vector<graph::Vertex> owned =
          service::shard_vertices(g.num_vertices(), 2, i);
      (void)service::play_protocol(*cluster.players[i], g, owned, protocol,
                                   coins, 5000ms);
    });
  }
  const auto served = cluster.referee.run(protocol, g.num_vertices());
  for (std::thread& t : threads) t.join();

  const auto simulated = model::run_protocol(g, protocol, coins);
  EXPECT_EQ(served.output, simulated.output);
  EXPECT_EQ(served.comm.total_bits, simulated.comm.total_bits);
}

TEST(ShardedReferee, MissingPlayerIsACleanDeadlineError) {
  const graph::Graph g = test_graph(8, 6, 0.3);
  const protocols::AgmConnectivity protocol;
  const model::PublicCoins coins(kCoinSeed);

  ShardedCluster cluster(2, 2, kCoinSeed, 300ms);
  // Player 0 sends only vertex 0; player 1 never shows up.
  const graph::Vertex v0[] = {0};
  (void)service::send_sketches(*cluster.players[0], g, v0, protocol, coins);

  EXPECT_THROW((void)cluster.referee.run(protocol, g.num_vertices()),
               service::ServiceError);
}

}  // namespace
}  // namespace ds
