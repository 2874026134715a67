// The referee service end-to-end: loopback sessions must reproduce the
// in-process runner exactly (output AND bit accounting), the adaptive
// multi-round loop must complete over real TCP, a referee fed corrupt
// or duplicate frames must reject them and finish the round from the
// retransmission instead of crashing, and a round whose players are all
// gone must fail at once instead of at the deadline.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "graph/generators.h"
#include "model/runner.h"
#include "obs/obs.h"
#include "protocols/spanning_forest.h"
#include "protocols/two_round_matching.h"
#include "protocols/zoo.h"
#include "service/player_client.h"
#include "service/referee_service.h"
#include "wire/loopback.h"
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

/// `players` loopback clients of one referee: the referee ends moved into
/// a one-shard RefereeService, the player ends in index order.
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
  return {service::RefereeService(std::move(referee_links), kCoinSeed),
          std::move(player_links)};
}

TEST(RefereeService, LoopbackMatchesInProcessRunnerExactly) {
  const graph::Graph g = test_graph(40, 1);
  const protocols::AgmSpanningForest protocol;
  const model::PublicCoins coins(kCoinSeed);

  LoopbackCluster cluster = make_cluster(3);
  for (std::size_t i = 0; i < 3; ++i) {
    const std::vector<graph::Vertex> owned =
        service::shard_vertices(g.num_vertices(), 3, i);
    (void)service::send_sketches(*cluster.players[i], g, owned, protocol,
                                 coins);
  }
  const service::ServeResult<model::ForestOutput> served =
      service::serve_protocol(cluster.referee.links(), protocol,
                              g.num_vertices(), coins, 2000ms);
  const auto simulated = model::run_protocol(g, protocol, coins);

  EXPECT_EQ(served.output, simulated.output);
  EXPECT_EQ(served.comm.max_bits, simulated.comm.max_bits);
  EXPECT_EQ(served.comm.total_bits, simulated.comm.total_bits);
  EXPECT_EQ(served.comm.num_players, simulated.comm.num_players);
  EXPECT_EQ(served.uplink.payload_bits, simulated.comm.total_bits);
  EXPECT_EQ(served.uplink.frames, g.num_vertices());
  EXPECT_GT(served.uplink.framing_bits, 0u);

  // Every player decodes the broadcast result identically.
  for (std::size_t i = 0; i < 3; ++i) {
    const model::ForestOutput result =
        service::await_result(*cluster.players[i], protocol, 1000ms);
    EXPECT_EQ(result, simulated.output);
  }
}

TEST(RefereeService, PlayerThreadsOverLoopback) {
  // Full client loop (send + await) on separate threads against the
  // referee template — the shape the TCP deployment uses.
  const graph::Graph g = test_graph(30, 2);
  const protocols::AgmConnectivity protocol;
  const model::PublicCoins coins(kCoinSeed);

  LoopbackCluster cluster = make_cluster(2);
  std::vector<std::uint32_t> player_results(2);
  std::vector<std::thread> threads;
  threads.reserve(2);
  for (std::size_t i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      const std::vector<graph::Vertex> owned =
          service::shard_vertices(g.num_vertices(), 2, i);
      player_results[i] = service::play_protocol(
          *cluster.players[i], g, owned, protocol, coins, 2000ms);
    });
  }
  const auto served = service::serve_protocol(
      cluster.referee.links(), protocol, g.num_vertices(), coins, 2000ms);
  for (std::thread& t : threads) t.join();

  const auto simulated = model::run_protocol(g, protocol, coins);
  EXPECT_EQ(served.output, simulated.output);
  EXPECT_EQ(player_results[0], simulated.output);
  EXPECT_EQ(player_results[1], simulated.output);
}

TEST(RefereeService, AdaptiveTwoRoundCompletesOverTcp) {
  // The acceptance-criteria case: a multi-round adaptive protocol over
  // the TCP transport, players in their own threads.  Metrics are
  // snapshotted around the session to pin the connection-reuse
  // contract: one connect per player for the WHOLE adaptive run, every
  // round riding the same link (a client reconnecting per round would
  // double the count and fail below).
  const graph::Graph g = test_graph(36, 3, 0.2);
  const protocols::TwoRoundMatching protocol{4, 8};
  const model::PublicCoins coins(kCoinSeed);
  constexpr std::size_t kPlayers = 3;

  const bool metrics_were_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const std::size_t connects_before =
      obs::counter("wire.tcp.connects").value();
  const std::size_t accepts_before =
      obs::counter("wire.tcp.accepts").value();

  wire::TcpListener listener;
  std::vector<model::MatchingOutput> player_results(kPlayers);
  std::vector<std::thread> threads;
  threads.reserve(kPlayers);
  for (std::size_t i = 0; i < kPlayers; ++i) {
    threads.emplace_back([&, i] {
      std::unique_ptr<wire::Link> link =
          wire::tcp_connect("127.0.0.1", listener.port(), 5000ms);
      const std::vector<graph::Vertex> owned =
          service::shard_vertices(g.num_vertices(), kPlayers, i);
      player_results[i] = service::play_protocol(*link, g, owned, protocol,
                                                 coins, 5000ms);
    });
  }
  std::vector<std::unique_ptr<wire::Link>> links;
  for (std::size_t i = 0; i < kPlayers; ++i) {
    std::unique_ptr<wire::Link> link = listener.accept(5000ms);
    ASSERT_NE(link, nullptr);
    links.push_back(std::move(link));
  }
  const service::RefereeService referee(std::move(links), kCoinSeed, 5000ms);
  const service::ServeResult<model::MatchingOutput> served =
      service::serve_protocol(referee.links(), protocol, g.num_vertices(),
                              coins, 5000ms);
  for (std::thread& t : threads) t.join();

  const auto simulated = model::run_protocol(g, protocol, coins);
  EXPECT_EQ(served.output, simulated.output);
  EXPECT_EQ(served.comm.max_bits, simulated.comm.max_bits);
  EXPECT_EQ(served.comm.total_bits, simulated.comm.total_bits);
  EXPECT_EQ(served.uplink.payload_bits, simulated.comm.total_bits);
  EXPECT_EQ(served.broadcast_bits, simulated.broadcast_bits);
  ASSERT_EQ(served.by_round.size(), simulated.by_round.size());
  for (std::size_t r = 0; r < served.by_round.size(); ++r) {
    EXPECT_EQ(served.by_round[r].total_bits,
              simulated.by_round[r].total_bits);
  }
  for (const model::MatchingOutput& result : player_results) {
    EXPECT_EQ(result, simulated.output);
  }

  // Connection reuse across adaptive rounds: the protocol ran multiple
  // rounds, yet each player dialed exactly once (and the listener
  // accepted exactly once per player).
  if (obs::metrics_enabled()) {
    EXPECT_EQ(obs::counter("wire.tcp.connects").value() - connects_before,
              kPlayers);
    EXPECT_EQ(obs::counter("wire.tcp.accepts").value() - accepts_before,
              kPlayers);
  }
  obs::set_metrics_enabled(metrics_were_enabled);
}

TEST(RefereeService, RejectsCorruptFramesAndFinishesFromRetransmission) {
  // Corrupt-frame injection (acceptance criteria): the referee must
  // reject the damaged frame, keep the session alive, and complete the
  // round once a clean copy arrives.
  const graph::Graph g = test_graph(12, 4, 0.3);
  const protocols::AgmConnectivity protocol;
  const model::PublicCoins coins(kCoinSeed);
  const std::uint32_t proto = wire::protocol_id(protocol.name());

  LoopbackCluster cluster = make_cluster(1);
  const std::vector<graph::Vertex> all =
      service::shard_vertices(g.num_vertices(), 1, 0);

  // Build the honest batch, then flip a byte in the middle before
  // sending — everything from the damaged frame on is dropped.
  std::vector<std::uint8_t> batch;
  for (const graph::Vertex v : all) {
    const model::VertexView view{g.num_vertices(), v, g.neighbors(v),
                                 &coins};
    util::BitWriter w;
    protocol.encode(view, w);
    (void)service::append_sketch_frame(batch, proto, v, 0,
                                       util::BitString(w));
  }
  std::vector<std::uint8_t> corrupt = batch;
  corrupt[corrupt.size() / 2] ^= 0x41;
  ASSERT_TRUE(cluster.players[0]->send(corrupt));
  // Retransmit the clean batch (duplicates of already-accepted vertices
  // are themselves rejected, missing ones are filled in).
  ASSERT_TRUE(cluster.players[0]->send(batch));

  const auto served = service::serve_protocol(
      cluster.referee.links(), protocol, g.num_vertices(), coins, 2000ms);
  const auto simulated = model::run_protocol(g, protocol, coins);
  EXPECT_EQ(served.output, simulated.output);
  EXPECT_EQ(served.comm.total_bits, simulated.comm.total_bits);
  EXPECT_GT(served.uplink.rejected_frames, 0u);
}

TEST(RefereeService, WrongProtocolAndBogusVerticesAreRejected) {
  const graph::Graph g = test_graph(10, 5, 0.3);
  const protocols::AgmConnectivity protocol;
  const model::PublicCoins coins(kCoinSeed);
  const std::uint32_t right = wire::protocol_id(protocol.name());
  const std::uint32_t wrong = wire::protocol_id("someone-else");

  LoopbackCluster cluster = make_cluster(1);
  util::BitWriter junk;
  junk.put_bits(0xABCD, 16);
  const util::BitString junk_bits(junk);

  std::vector<std::uint8_t> bad;
  (void)service::append_sketch_frame(bad, wrong, 0, 0, junk_bits);
  (void)service::append_sketch_frame(bad, right, 10'000, 0, junk_bits);
  (void)service::append_sketch_frame(bad, right, 3, 7, junk_bits);  // round
  ASSERT_TRUE(cluster.players[0]->send(bad));

  const std::vector<graph::Vertex> all =
      service::shard_vertices(g.num_vertices(), 1, 0);
  (void)service::send_sketches(*cluster.players[0], g, all, protocol,
                               coins);

  const auto served = service::serve_protocol(
      cluster.referee.links(), protocol, g.num_vertices(), coins, 2000ms);
  const auto simulated = model::run_protocol(g, protocol, coins);
  EXPECT_EQ(served.output, simulated.output);
  EXPECT_EQ(served.uplink.rejected_frames, 3u);
  EXPECT_EQ(served.uplink.payload_bits, simulated.comm.total_bits);
}

TEST(RefereeService, MissingPlayerIsACleanDeadlineError) {
  const graph::Graph g = test_graph(8, 6, 0.3);
  const protocols::AgmConnectivity protocol;
  const model::PublicCoins coins(kCoinSeed);

  LoopbackCluster cluster = make_cluster(2);
  // Player 0 reports only vertex 0; player 1 never shows up.
  const graph::Vertex v0[] = {0};
  (void)service::send_sketches(*cluster.players[0], g, v0, protocol, coins);

  EXPECT_THROW((void)service::serve_protocol(cluster.referee.links(),
                                             protocol, g.num_vertices(),
                                             coins, 150ms),
               service::ServiceError);
}

TEST(RefereeService, RoundEndsAtOnceWhenEveryPlayerIsGone) {
  // Once no shard holds an open connection the round can never complete,
  // so it closes then with the missing-vertices error, not at the
  // deadline.
  const graph::Graph g = test_graph(8, 6, 0.3);
  const protocols::AgmConnectivity protocol;
  const model::PublicCoins coins(kCoinSeed);

  for (const std::size_t shards : {1u, 2u}) {
    SCOPED_TRACE(std::to_string(shards) + " shard(s)");
    service::RefereeService referee(shards, kCoinSeed, 5000ms);
    std::vector<std::unique_ptr<wire::Link>> players;
    for (int i = 0; i < 2; ++i) {
      wire::LoopbackPair pair = wire::make_loopback_pair();
      (void)referee.adopt_fd(wire::release_fd(std::move(pair.referee_side)));
      players.push_back(std::move(pair.player_side));
    }
    // Player 0 sends vertex 0's sketch, then both players close.
    const graph::Vertex v0[] = {0};
    (void)service::send_sketches(*players[0], g, v0, protocol, coins);
    players.clear();

    const auto start = std::chrono::steady_clock::now();
    std::string what;
    try {
      (void)referee.run(protocol, g.num_vertices());
      ADD_FAILURE() << "a round without players must throw";
    } catch (const service::ServiceError& e) {
      what = e.what();
    }
    EXPECT_LT(std::chrono::steady_clock::now() - start, 1s);
    EXPECT_NE(what.find("(vertices 1-7)"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace ds
