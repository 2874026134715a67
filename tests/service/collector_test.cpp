// The round collector: the one acceptance rule, reject taxonomy and
// round close behind every referee shard.
//
// Two layers under test: (1) RoundCollector on its own — every reject
// reason counted under its own service.reject.* name, WireStats derived
// from the accepted frames, the missing-vertex diagnostic; (2) the same
// hostile message script served by the referee at 1 and at 2 shards,
// which must agree on the output, the CommStats, every WireStats field
// and every reject counter.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <array>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "obs/obs.h"
#include "protocols/zoo.h"
#include "service/player_client.h"
#include "service/referee_service.h"
#include "service/session.h"
#include "wire/tcp.h"

namespace ds {
namespace {

using namespace std::chrono_literals;

constexpr std::uint64_t kCoinSeed = 2020;
constexpr std::uint32_t kProto = 42;

class RoundCollectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_metrics_enabled(true);
    obs::reset();
  }
  void TearDown() override { obs::set_metrics_enabled(false); }
};

util::BitString bits_of(std::uint64_t value, unsigned width) {
  util::BitWriter w;
  w.put_bits(value, width);
  return util::BitString(std::move(w));
}

std::uint64_t reject_count(service::RejectReason r) {
  return obs::counter("service.reject." +
                      std::string(service::reject_reason_name(r)))
      .value();
}

TEST_F(RoundCollectorTest, EveryRejectReasonIsCountedUnderItsOwnName) {
  const service::RoundSpec spec{2, kProto, 0};
  service::RoundCollector collector(spec);

  std::vector<std::uint8_t> message;
  (void)wire::encode_frame({wire::FrameType::kBroadcast, kProto, 0, 0},
                           bits_of(1, 4), message);
  (void)service::append_sketch_frame(message, kProto + 1, 0, 0,
                                     bits_of(2, 4));
  (void)service::append_sketch_frame(message, kProto, 0, 3, bits_of(3, 4));
  (void)service::append_sketch_frame(message, kProto, 99, 0, bits_of(4, 4));
  (void)service::append_sketch_frame(message, kProto, 0, 0, bits_of(5, 4));
  (void)service::append_sketch_frame(message, kProto, 0, 0, bits_of(6, 4));
  EXPECT_EQ(collector.offer_message(message, "link", 0), 1u);
  const std::vector<std::uint8_t> garbage{0x00, 0x01, 0x02};
  EXPECT_EQ(collector.offer_message(garbage, "link", 1), 0u);
  std::vector<std::uint8_t> last;
  (void)service::append_sketch_frame(last, kProto, 1, 0, bits_of(7, 4));
  EXPECT_EQ(collector.offer_message(last, "link", 0), 1u);
  ASSERT_TRUE(collector.complete());

  const service::CollectedRound round = std::move(collector).finish();
  using service::RejectReason;
  const std::vector<RejectReason> expect{
      RejectReason::kBadType,   RejectReason::kBadProtocol,
      RejectReason::kBadRound,  RejectReason::kBadVertex,
      RejectReason::kDuplicate, RejectReason::kCorrupt};
  ASSERT_EQ(round.rejects.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(round.rejects[i].reason, expect[i]) << "reject " << i;
    EXPECT_EQ(reject_count(expect[i]), 1u)
        << service::reject_reason_name(expect[i]);
  }
  EXPECT_EQ(round.rejects[5].detail.rfind("link 1: ", 0), 0u);
  EXPECT_EQ(round.wire.rejected_frames, expect.size());
  EXPECT_EQ(round.wire.messages, 3u);
  // The first copy of vertex 0 won.
  EXPECT_EQ(round.sketches[0].words()[0], 5u);
}

TEST_F(RoundCollectorTest, DamagedMessageRejectsFollowArrivalOrder) {
  // Frames before the damage are offered first, so their rejects come
  // before the message's kCorrupt; the frame after it is never seen.
  service::RoundCollector collector({2, kProto, 0});
  std::vector<std::uint8_t> message;
  (void)service::append_sketch_frame(message, kProto, 0, 0, bits_of(1, 4));
  (void)service::append_sketch_frame(message, kProto, 0, 0, bits_of(2, 4));
  const std::size_t damaged_at = message.size();
  (void)service::append_sketch_frame(message, kProto, 1, 0, bits_of(3, 4));
  message[damaged_at] ^= 0xFF;  // the third frame's magic
  EXPECT_EQ(collector.offer_message(message, "link", 0), 1u);
  EXPECT_FALSE(collector.has(1));

  std::vector<std::uint8_t> last;
  (void)service::append_sketch_frame(last, kProto, 1, 0, bits_of(3, 4));
  EXPECT_EQ(collector.offer_message(last, "link", 0), 1u);
  const service::CollectedRound round = std::move(collector).finish();
  ASSERT_EQ(round.rejects.size(), 2u);
  EXPECT_EQ(round.rejects[0].reason, service::RejectReason::kDuplicate);
  EXPECT_EQ(round.rejects[1].reason, service::RejectReason::kCorrupt);
  EXPECT_NE(round.rejects[1].detail.find(
                "bad-magic at byte " + std::to_string(damaged_at)),
            std::string::npos)
      << round.rejects[1].detail;
}

TEST_F(RoundCollectorTest, WireStatsAreThoseOfTheAcceptedFrames) {
  const service::RoundSpec spec{5, kProto, 2};
  service::RoundCollector collector(spec);
  std::vector<std::uint8_t> message;
  std::size_t framing = 0;
  std::size_t payload = 0;
  for (graph::Vertex v = 0; v < spec.n; ++v) {
    const util::BitString sketch = bits_of(v, 3 + v * 13);
    framing +=
        service::append_sketch_frame(message, kProto, v, spec.round, sketch);
    payload += sketch.bit_count();
  }
  // A retransmission of the whole batch: all duplicates, none counted.
  EXPECT_EQ(collector.offer_message(message, "conn", 0), spec.n);
  EXPECT_EQ(collector.offer_message(message, "conn", 0), 0u);

  const service::CollectedRound round = std::move(collector).finish();
  EXPECT_EQ(round.wire.frames, spec.n);
  EXPECT_EQ(round.wire.payload_bits, payload);
  EXPECT_EQ(round.wire.framing_bits, framing);
  EXPECT_EQ(round.wire.rejected_frames, spec.n);
  EXPECT_EQ(obs::counter("service.frames_accepted").value(), spec.n);
  EXPECT_EQ(obs::counter("service.payload_bits").value(), payload);
  EXPECT_EQ(obs::counter("service.reject.duplicate").value(), spec.n);
  EXPECT_EQ(obs::counter("service.rounds_collected").value(), 1u);
  EXPECT_EQ(obs::histogram("service.sketch_bits").count(), spec.n);
}

/// The deadline diagnostic of a round over `n` vertices of which only
/// `held` arrived.
std::string missing_message(graph::Vertex n,
                            const std::vector<graph::Vertex>& held) {
  service::RoundCollector collector({n, kProto, 1});
  std::vector<std::uint8_t> message;
  for (const graph::Vertex v : held) {
    (void)service::append_sketch_frame(message, kProto, v, 1, bits_of(v, 8));
  }
  (void)collector.offer_message(message, "link", 0);
  try {
    (void)std::move(collector).finish();
  } catch (const service::ServiceError& e) {
    return e.what();
  }
  ADD_FAILURE() << "an incomplete round must throw";
  return {};
}

TEST_F(RoundCollectorTest, MissingVerticesAreNamedAsRanges) {
  const std::string what = missing_message(12, {0, 1, 2, 6, 7});
  EXPECT_NE(what.find("round 1: 7 sketch(es) missing"), std::string::npos)
      << what;
  EXPECT_NE(what.find("(vertices 3-5, 8-11)"), std::string::npos) << what;
  EXPECT_EQ(obs::counter("service.deadline_misses").value(), 1u);
  EXPECT_EQ(obs::counter("service.rounds_collected").value(), 0u);
}

TEST_F(RoundCollectorTest, LongMissingListsAreElided) {
  std::vector<graph::Vertex> even;
  for (graph::Vertex v = 0; v < 40; v += 2) even.push_back(v);
  const std::string what = missing_message(40, even);
  EXPECT_NE(what.find("20 sketch(es) missing"), std::string::npos) << what;
  EXPECT_NE(what.find("(vertices 1, 3, 5, 7, 9, 11, 13, 15, ...)"),
            std::string::npos)
      << what;
}

// ---------------------------------------------------------------------
// One hostile script, every shard count.
// ---------------------------------------------------------------------

/// What one shard count made of the script: the served session plus
/// every reject counter.
struct PathOutcome {
  service::ServeResult<std::uint32_t> served;
  std::array<std::uint64_t, service::kRejectReasons> rejects{};
};

/// Two players over socketpairs.  Player 0 sends a message of one good
/// frame and five bad ones, then its batch with a byte flipped, then
/// its clean batch; player 1 sends its clean batch.  Every frame that
/// completes the round is in player 0's last message, so every shard
/// count reads every message before it closes the round.
class HostileScript {
 public:
  HostileScript() {
    util::Rng rng(9);
    g_ = graph::gnp(12, 0.3, rng);
  }

  template <typename Serve>
  PathOutcome run(std::vector<int>& referee_fds, const Serve& serve) {
    obs::reset();
    std::vector<std::unique_ptr<wire::Link>> players;
    for (int p = 0; p < 2; ++p) {
      int fds[2] = {-1, -1};
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        throw std::runtime_error("socketpair failed");
      }
      referee_fds.push_back(fds[0]);
      players.push_back(wire::tcp_adopt_fd(fds[1]));
    }
    const std::uint32_t proto = wire::protocol_id(protocol_.name());
    const std::vector<graph::Vertex> half0 = service::shard_vertices(12, 2, 0);
    const std::vector<graph::Vertex> half1 = service::shard_vertices(12, 2, 1);
    const std::vector<std::uint8_t> clean0 = batch(half0);

    std::vector<std::uint8_t> hostile = batch({half0[0], half0[0]});
    (void)wire::encode_frame({wire::FrameType::kResult, proto, 0, 0},
                             bits_of(1, 8), hostile);
    (void)service::append_sketch_frame(hostile, proto + 1, 1, 0,
                                       bits_of(1, 8));
    (void)service::append_sketch_frame(hostile, proto, 1, 5, bits_of(1, 8));
    (void)service::append_sketch_frame(hostile, proto, 12, 0, bits_of(1, 8));
    std::vector<std::uint8_t> damaged = clean0;
    damaged[damaged.size() / 2] ^= 0x41;
    EXPECT_TRUE(players[0]->send(hostile));
    EXPECT_TRUE(players[0]->send(damaged));
    EXPECT_TRUE(players[1]->send(batch(half1)));
    EXPECT_TRUE(players[0]->send(clean0));

    PathOutcome out{serve(protocol_, coins_), {}};
    for (std::size_t r = 0; r < service::kRejectReasons; ++r) {
      out.rejects[r] = reject_count(static_cast<service::RejectReason>(r));
    }
    return out;
  }

 private:
  std::vector<std::uint8_t> batch(const std::vector<graph::Vertex>& verts) {
    const std::uint32_t proto = wire::protocol_id(protocol_.name());
    std::vector<std::uint8_t> bytes;
    for (const graph::Vertex v : verts) {
      const model::VertexView view{g_.num_vertices(), v, g_.neighbors(v),
                                   &coins_};
      util::BitWriter w;
      protocol_.encode(view, w);
      (void)service::append_sketch_frame(bytes, proto, v, 0,
                                         util::BitString(w));
    }
    return bytes;
  }

  graph::Graph g_;
  protocols::AgmConnectivity protocol_;
  model::PublicCoins coins_{kCoinSeed};
};

PathOutcome shard_path(HostileScript& script, std::size_t shards) {
  std::vector<int> fds;
  return script.run(fds, [&](const auto& protocol, const auto& coins) {
    service::RefereeService referee(shards, kCoinSeed, 2000ms);
    for (const int fd : fds) (void)referee.adopt_fd(fd);
    return service::serve_protocol(referee.links(), protocol, 12, coins,
                                   2000ms);
  });
}

void expect_same_outcome(const PathOutcome& a, const PathOutcome& b,
                         const std::string& name) {
  EXPECT_EQ(a.served.output, b.served.output) << name;
  EXPECT_EQ(a.served.comm.total_bits, b.served.comm.total_bits) << name;
  EXPECT_EQ(a.served.comm.max_bits, b.served.comm.max_bits) << name;
  const service::WireStats& x = a.served.uplink;
  const service::WireStats& y = b.served.uplink;
  EXPECT_EQ(x.frames, y.frames) << name;
  EXPECT_EQ(x.messages, y.messages) << name;
  EXPECT_EQ(x.payload_bits, y.payload_bits) << name;
  EXPECT_EQ(x.framing_bits, y.framing_bits) << name;
  EXPECT_EQ(x.rejected_frames, y.rejected_frames) << name;
  for (std::size_t r = 0; r < service::kRejectReasons; ++r) {
    EXPECT_EQ(a.rejects[r], b.rejects[r])
        << name << ": service.reject."
        << service::reject_reason_name(static_cast<service::RejectReason>(r));
  }
}

TEST_F(RoundCollectorTest, HostileScriptYieldsTheSameRoundOnEveryPath) {
  HostileScript script;
  const PathOutcome one = shard_path(script, 1);

  // The script's bad frames, one reason each, plus the damaged batch.
  using service::RejectReason;
  const auto count = [&](RejectReason r) {
    return one.rejects[static_cast<std::size_t>(r)];
  };
  EXPECT_EQ(count(RejectReason::kCorrupt), 1u);
  EXPECT_EQ(count(RejectReason::kBadType), 1u);
  EXPECT_EQ(count(RejectReason::kBadProtocol), 1u);
  EXPECT_EQ(count(RejectReason::kBadRound), 1u);
  EXPECT_EQ(count(RejectReason::kBadVertex), 1u);
  EXPECT_GE(count(RejectReason::kDuplicate), 2u);
  std::uint64_t total = 0;
  for (const std::uint64_t c : one.rejects) total += c;
  EXPECT_EQ(total, one.served.uplink.rejected_frames);
  EXPECT_EQ(one.served.uplink.frames, 12u);
  EXPECT_EQ(one.served.uplink.messages, 4u);

  expect_same_outcome(one, shard_path(script, 2), "2 shards");
}

}  // namespace
}  // namespace ds
