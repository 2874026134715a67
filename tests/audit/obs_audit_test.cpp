// The observability audit (ISSUE 4 acceptance criterion): counters are
// only trustworthy if they agree with the ground truth the code already
// computes.  With metrics enabled,
//
//   * wire byte counters must equal the transport's own byte accounting:
//     the referee's wire.evloop.* that of its shards' event loops, the
//     players' wire.tcp.* that of their links,
//   * the service.sketch_bits histogram must equal the session's
//     CommStats exactly (count == num_players, sum == total_bits,
//     max == max_bits), and service.payload_bits the uplink payload,
//   * the model.encode.sketch_bits histogram must equal the simulated
//     runner's CommStats the same way, for one-round and multi-round runs.
//
// Everything here runs single-session with obs::reset() up front, so the
// equalities are exact, not approximate.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <memory>
#include <thread>
#include <vector>

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
using graph::Graph;

class ObsAudit : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_metrics_enabled(true);
    obs::reset();
  }
  void TearDown() override { obs::set_metrics_enabled(false); }

  static Graph test_graph() {
    util::Rng rng(11);
    return graph::gnp(24, 0.25, rng);
  }
};

/// The byte counters of both transports against what the referee's event
/// loops and the players' links believe they moved; every byte one side
/// sent, the other received.
void expect_byte_counters_match(const service::RefereeService& referee,
                                std::span<const std::unique_ptr<wire::Link>>
                                    players) {
  std::size_t referee_sent = 0;
  std::size_t referee_received = 0;
  for (const auto& shard : referee.links()) {
    referee_sent += shard->bytes_sent();
    referee_received += shard->bytes_received();
  }
  std::size_t players_sent = 0;
  std::size_t players_received = 0;
  for (const std::unique_ptr<wire::Link>& link : players) {
    players_sent += link->bytes_sent();
    players_received += link->bytes_received();
  }
  EXPECT_EQ(obs::counter("wire.evloop.bytes_sent").value(), referee_sent);
  EXPECT_EQ(obs::counter("wire.evloop.bytes_received").value(),
            referee_received);
  EXPECT_EQ(obs::counter("wire.tcp.bytes_sent").value(), players_sent);
  EXPECT_EQ(obs::counter("wire.tcp.bytes_received").value(),
            players_received);
  EXPECT_EQ(players_sent, referee_received);
  EXPECT_EQ(referee_sent, players_received);
  EXPECT_EQ(obs::counter("wire.tcp.messages_sent").value(),
            obs::histogram("wire.tcp.message_bytes").count());
}

/// `players` loopback pairs: the referee ends moved into a one-shard
/// RefereeService, the player ends appended to `player_links`.
service::RefereeService loopback_referee(
    std::size_t players, std::vector<std::unique_ptr<wire::Link>>&
                             player_links) {
  std::vector<std::unique_ptr<wire::Link>> referee_links;
  for (std::size_t i = 0; i < players; ++i) {
    wire::LoopbackPair pair = wire::make_loopback_pair();
    referee_links.push_back(std::move(pair.referee_side));
    player_links.push_back(std::move(pair.player_side));
  }
  return service::RefereeService(std::move(referee_links), 0, 5000ms);
}

TEST_F(ObsAudit, LoopbackByteCountersMatchLinkAccounting) {
  const Graph g = test_graph();
  const protocols::AgmSpanningForest protocol;
  const model::PublicCoins coins(71);
  constexpr std::size_t kPlayers = 3;

  std::vector<std::unique_ptr<wire::Link>> player_links;
  const service::RefereeService referee =
      loopback_referee(kPlayers, player_links);

  std::vector<std::thread> clients;
  clients.reserve(kPlayers);
  for (std::size_t i = 0; i < kPlayers; ++i) {
    clients.emplace_back([&, i] {
      (void)service::play_protocol(
          *player_links[i], g,
          service::shard_vertices(g.num_vertices(), kPlayers, i), protocol,
          coins, 5000ms);
    });
  }
  const auto served = service::serve_protocol(
      referee.links(), protocol, g.num_vertices(), coins, 5000ms);
  for (std::thread& t : clients) t.join();

  expect_byte_counters_match(referee, player_links);

  // Service accounting against the session's CommStats, bit for bit.
  const obs::Histogram& sketch_bits = obs::histogram("service.sketch_bits");
  EXPECT_EQ(sketch_bits.count(), served.comm.num_players);
  EXPECT_EQ(sketch_bits.sum(), served.comm.total_bits);
  EXPECT_EQ(sketch_bits.max(), served.comm.max_bits);
  EXPECT_EQ(obs::counter("service.payload_bits").value(),
            served.uplink.payload_bits);
  EXPECT_EQ(obs::counter("service.frames_accepted").value(),
            served.comm.num_players);
  EXPECT_EQ(obs::counter("service.rounds_collected").value(), 1u);
  EXPECT_EQ(obs::counter("service.reject.corrupt").value(), 0u);
}

TEST_F(ObsAudit, TcpByteCountersMatchLinkAccounting) {
  const Graph g = test_graph();
  const protocols::AgmConnectivity protocol;
  const model::PublicCoins coins(72);
  constexpr std::size_t kPlayers = 2;

  wire::TcpListener listener;
  std::vector<std::unique_ptr<wire::Link>> player_links;
  std::thread connector([&] {
    for (std::size_t i = 0; i < kPlayers; ++i) {
      player_links.push_back(
          wire::tcp_connect("127.0.0.1", listener.port(), 5000ms));
    }
  });
  service::RefereeService referee(1, 0, 5000ms);
  for (std::size_t i = 0; i < kPlayers; ++i) {
    const int fd = listener.accept_fd(5000ms);
    ASSERT_GE(fd, 0);
    (void)referee.adopt_fd(fd);
  }
  connector.join();

  std::vector<std::thread> clients;
  clients.reserve(kPlayers);
  for (std::size_t i = 0; i < kPlayers; ++i) {
    clients.emplace_back([&, i] {
      (void)service::play_protocol(
          *player_links[i], g,
          service::shard_vertices(g.num_vertices(), kPlayers, i), protocol,
          coins, 5000ms);
    });
  }
  const auto served = service::serve_protocol(
      referee.links(), protocol, g.num_vertices(), coins, 5000ms);
  for (std::thread& t : clients) t.join();

  expect_byte_counters_match(referee, player_links);
  EXPECT_EQ(obs::counter("wire.tcp.accepts").value(), kPlayers);
  EXPECT_EQ(obs::counter("wire.tcp.connects").value(), kPlayers);
  EXPECT_EQ(obs::counter("wire.tcp.send_failures").value(), 0u);
  EXPECT_EQ(obs::counter("wire.tcp.poll_errors").value(), 0u);

  const obs::Histogram& sketch_bits = obs::histogram("service.sketch_bits");
  EXPECT_EQ(sketch_bits.count(), served.comm.num_players);
  EXPECT_EQ(sketch_bits.sum(), served.comm.total_bits);
  EXPECT_EQ(sketch_bits.max(), served.comm.max_bits);

  // Over a real TCP socket the payload is still exactly what the
  // simulation charges.
  const auto simulated = model::run_protocol(g, protocol, coins);
  EXPECT_EQ(served.uplink.payload_bits, simulated.comm.total_bits);
  EXPECT_EQ(served.output, simulated.output);
}

TEST_F(ObsAudit, ModelHistogramMatchesSimulatedCommStats) {
  const Graph g = test_graph();
  const protocols::AgmSpanningForest protocol;
  const model::PublicCoins coins(73);

  const auto run = model::run_protocol(g, protocol, coins);

  const obs::Histogram& bits = obs::histogram("model.encode.sketch_bits");
  EXPECT_EQ(obs::counter("model.encode.sketches").value(),
            run.comm.num_players);
  EXPECT_EQ(bits.count(), run.comm.num_players);
  EXPECT_EQ(bits.sum(), run.comm.total_bits);
  EXPECT_EQ(bits.max(), run.comm.max_bits);
}

TEST_F(ObsAudit, AdaptiveRunnerCountersMatchByRoundTotals) {
  const Graph g = test_graph();
  const protocols::TwoRoundMatching protocol{4, 8};
  const model::PublicCoins coins(74);

  const auto run = model::run_protocol(g, protocol, coins);

  std::size_t total_bits = 0;
  std::size_t encodes = 0;
  for (const model::CommStats& round : run.by_round) {
    total_bits += round.total_bits;
    encodes += round.num_players;
  }
  const obs::Histogram& bits = obs::histogram("model.encode.sketch_bits");
  EXPECT_EQ(obs::counter("model.encode.sketches").value(), encodes);
  EXPECT_EQ(bits.count(), encodes);
  EXPECT_EQ(bits.sum(), total_bits);
  EXPECT_EQ(obs::counter("model.adaptive.rounds").value(),
            protocol.num_rounds());
  EXPECT_EQ(obs::histogram("model.adaptive.broadcast_bits").sum(),
            run.broadcast_bits);
}

// The engine registers model.encode.* exactly once
// (engine/instrumentation.cpp), so a one-round and an adaptive run in
// the same session share the series: the histogram must equal the SUM of
// both runs' CommStats, not either one alone.  This is the regression
// test for the seed-era duplicate registration (the one-round and the
// adaptive runner headers each owned a copy).  The model.adaptive.*
// series are recorded only for num_rounds() > 1.
TEST_F(ObsAudit, OneRoundAndAdaptiveShareTheEncodeSeries) {
  const Graph g = test_graph();
  const protocols::AgmSpanningForest one_round;
  const protocols::TwoRoundMatching adaptive{4, 8};
  const model::PublicCoins coins(76);

  const auto first = model::run_protocol(g, one_round, coins);
  const auto second = model::run_protocol(g, adaptive, coins);

  std::size_t adaptive_encodes = 0;
  for (const model::CommStats& round : second.by_round) {
    adaptive_encodes += round.num_players;
  }
  const obs::Histogram& bits = obs::histogram("model.encode.sketch_bits");
  EXPECT_EQ(obs::counter("model.encode.sketches").value(),
            first.comm.num_players + adaptive_encodes);
  EXPECT_EQ(bits.count(), first.comm.num_players + adaptive_encodes);
  EXPECT_EQ(bits.sum(), first.comm.total_bits + second.comm.total_bits);
  // The adaptive-only series saw only the adaptive run.
  EXPECT_EQ(obs::counter("model.adaptive.rounds").value(),
            adaptive.num_rounds());
  EXPECT_EQ(obs::histogram("model.adaptive.broadcast_bits").sum(),
            second.broadcast_bits);
}

// An adaptive protocol's wire session runs the same engine loop as a
// one-round one: the per-frame service metrics must equal the served
// CommStats across ALL rounds, and rounds_collected must count every
// collect the engine issued.
TEST_F(ObsAudit, AdaptiveServiceHistogramMatchesServedCommStats) {
  const Graph g = test_graph();
  const protocols::TwoRoundMatching protocol{4, 8};
  const model::PublicCoins coins(77);
  constexpr std::size_t kPlayers = 2;

  std::vector<std::unique_ptr<wire::Link>> player_links;
  const service::RefereeService referee =
      loopback_referee(kPlayers, player_links);
  std::vector<std::thread> clients;
  clients.reserve(kPlayers);
  for (std::size_t i = 0; i < kPlayers; ++i) {
    clients.emplace_back([&, i] {
      (void)service::play_protocol(
          *player_links[i], g,
          service::shard_vertices(g.num_vertices(), kPlayers, i), protocol,
          coins, 5000ms);
    });
  }
  const auto served = service::serve_protocol(
      referee.links(), protocol, g.num_vertices(), coins, 5000ms);
  for (std::thread& t : clients) t.join();

  // One frame per (vertex, round); the histogram aggregates all rounds.
  const obs::Histogram& sketch_bits = obs::histogram("service.sketch_bits");
  std::size_t frames = 0;
  for (const model::CommStats& round : served.by_round) {
    frames += round.num_players;
  }
  EXPECT_EQ(sketch_bits.count(), frames);
  EXPECT_EQ(sketch_bits.sum(), served.comm.total_bits);
  EXPECT_EQ(obs::counter("service.frames_accepted").value(), frames);
  EXPECT_EQ(obs::counter("service.rounds_collected").value(),
            protocol.num_rounds());
  EXPECT_EQ(obs::counter("service.payload_bits").value(),
            served.uplink.payload_bits);
  // Both decode paths ran through the engine's decode span.
  EXPECT_EQ(obs::histogram("service.decode_us").count(), 1u);
}

// A two-shard referee closes its combined round through the same
// RoundCollector::finish as one shard, so the service.* round series
// must equal the served CommStats there too, and the collect span must
// be the one serve template's.
TEST_F(ObsAudit, ShardedServiceHistogramMatchesServedCommStats) {
  const Graph g = test_graph();
  const protocols::AgmSpanningForest protocol;
  const model::PublicCoins coins(78);
  constexpr std::size_t kPlayers = 3;

  service::RefereeService referee(2, 78, 5000ms);
  std::vector<std::unique_ptr<wire::Link>> player_links;
  for (std::size_t i = 0; i < kPlayers; ++i) {
    int fds[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    (void)referee.adopt_fd(fds[0]);
    player_links.push_back(wire::tcp_adopt_fd(fds[1]));
  }
  std::vector<std::thread> clients;
  clients.reserve(kPlayers);
  for (std::size_t i = 0; i < kPlayers; ++i) {
    clients.emplace_back([&, i] {
      (void)service::play_protocol(
          *player_links[i], g,
          service::shard_vertices(g.num_vertices(), kPlayers, i), protocol,
          coins, 5000ms);
    });
  }
  const auto served = referee.run(protocol, g.num_vertices());
  for (std::thread& t : clients) t.join();

  const obs::Histogram& sketch_bits = obs::histogram("service.sketch_bits");
  EXPECT_EQ(sketch_bits.count(), served.comm.num_players);
  EXPECT_EQ(sketch_bits.sum(), served.comm.total_bits);
  EXPECT_EQ(sketch_bits.max(), served.comm.max_bits);
  EXPECT_EQ(obs::counter("service.payload_bits").value(),
            served.uplink.payload_bits);
  EXPECT_EQ(obs::counter("service.frames_accepted").value(),
            served.comm.num_players);
  EXPECT_EQ(obs::counter("service.messages").value(),
            served.uplink.messages);
  EXPECT_EQ(obs::counter("service.rounds_collected").value(), 1u);
  EXPECT_EQ(obs::histogram("service.collect_us").count(), 1u);
  EXPECT_EQ(obs::histogram("service.decode_us").count(), 1u);
  EXPECT_EQ(obs::histogram("service.reply_us").count(), 1u);
}

TEST_F(ObsAudit, DisabledMetricsRecordNothingAndPreserveResults) {
  const Graph g = test_graph();
  const protocols::AgmSpanningForest protocol;
  const model::PublicCoins coins(75);

  const auto with_metrics = model::run_protocol(g, protocol, coins);
  obs::set_metrics_enabled(false);
  obs::reset();
  const auto without_metrics = model::run_protocol(g, protocol, coins);
  obs::set_metrics_enabled(true);

  // Zero recording while off...
  EXPECT_EQ(obs::counter("model.encode.sketches").value(), 0u);
  EXPECT_EQ(obs::histogram("model.encode.sketch_bits").count(), 0u);
  // ...and bit-identical results either way.
  EXPECT_EQ(with_metrics.comm.total_bits, without_metrics.comm.total_bits);
  EXPECT_EQ(with_metrics.comm.max_bits, without_metrics.comm.max_bits);
  EXPECT_TRUE(with_metrics.output == without_metrics.output);
}

}  // namespace
}  // namespace ds
