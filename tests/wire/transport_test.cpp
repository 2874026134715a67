// Transport behavior, loopback and TCP: whole-message delivery in order,
// timeouts, clean close vs short read, oversized-length rejection, byte
// counters, and handing a socket back (release_fd).  The TCP cases run
// against a real socket pair on 127.0.0.1 so the failure modes are the
// genuine article.  The MessageAssembler cases drive the framing machine
// both transports share directly, at the edge of the length cap and under
// every chunking of a stream.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <thread>

#include "wire/loopback.h"
#include "wire/stream_framing.h"
#include "wire/tcp.h"

namespace ds {
namespace {

using namespace std::chrono_literals;

std::vector<std::uint8_t> message_of(std::initializer_list<int> bytes) {
  std::vector<std::uint8_t> m;
  for (const int b : bytes) m.push_back(static_cast<std::uint8_t>(b));
  return m;
}

TEST(Loopback, DeliversMessagesInOrderBothWays) {
  wire::LoopbackPair pair = wire::make_loopback_pair();
  ASSERT_TRUE(pair.player_side->send(message_of({1, 2})));
  ASSERT_TRUE(pair.player_side->send(message_of({3})));
  ASSERT_TRUE(pair.referee_side->send(message_of({9})));

  wire::RecvResult first = pair.referee_side->recv(100ms);
  ASSERT_EQ(first.status, wire::RecvStatus::kOk);
  EXPECT_EQ(first.message, message_of({1, 2}));
  wire::RecvResult second = pair.referee_side->recv(100ms);
  ASSERT_EQ(second.status, wire::RecvStatus::kOk);
  EXPECT_EQ(second.message, message_of({3}));

  wire::RecvResult down = pair.player_side->recv(100ms);
  ASSERT_EQ(down.status, wire::RecvStatus::kOk);
  EXPECT_EQ(down.message, message_of({9}));

  // Both ends count the 4-byte transport prefix of each message.
  EXPECT_EQ(pair.player_side->bytes_sent(), 4u + 2u + 4u + 1u);
  EXPECT_EQ(pair.referee_side->bytes_received(), 4u + 2u + 4u + 1u);
}

TEST(Loopback, TimesOutWhenIdle) {
  wire::LoopbackPair pair = wire::make_loopback_pair();
  const wire::RecvResult r = pair.referee_side->recv(10ms);
  EXPECT_EQ(r.status, wire::RecvStatus::kTimeout);
}

TEST(Loopback, PeerDestructionDrainsThenCloses) {
  wire::LoopbackPair pair = wire::make_loopback_pair();
  ASSERT_TRUE(pair.player_side->send(message_of({5})));
  pair.player_side.reset();
  // The queued message survives the close...
  wire::RecvResult queued = pair.referee_side->recv(100ms);
  ASSERT_EQ(queued.status, wire::RecvStatus::kOk);
  EXPECT_EQ(queued.message, message_of({5}));
  // ...then the close is visible.
  EXPECT_EQ(pair.referee_side->recv(10ms).status, wire::RecvStatus::kClosed);
  EXPECT_FALSE(pair.referee_side->send(message_of({1})));
}

TEST(Loopback, ReleasedFdReadsOnFromTheMessageBoundary) {
  wire::LoopbackPair pair = wire::make_loopback_pair();
  ASSERT_TRUE(pair.player_side->send(message_of({1})));
  ASSERT_TRUE(pair.player_side->send(message_of({2, 3})));
  ASSERT_EQ(pair.referee_side->recv(100ms).status, wire::RecvStatus::kOk);
  const std::unique_ptr<wire::Link> again =
      wire::tcp_adopt_fd(wire::release_fd(std::move(pair.referee_side)));
  const wire::RecvResult r = again->recv(100ms);
  ASSERT_EQ(r.status, wire::RecvStatus::kOk);
  EXPECT_EQ(r.message, message_of({2, 3}));
}

TEST(Loopback, ReleaseFdRefusesALinkMidMessage) {
  // The prefix promises 4 body bytes and 2 arrive: the link holds half a
  // message, so no new owner could find the next boundary.
  wire::LoopbackPair pair = wire::make_loopback_pair();
  const int raw = wire::release_fd(std::move(pair.player_side));
  const std::vector<std::uint8_t> half = message_of({4, 0, 0, 0, 7, 7});
  ASSERT_EQ(::send(raw, half.data(), half.size(), 0),
            static_cast<ssize_t>(half.size()));
  EXPECT_EQ(pair.referee_side->recv(20ms).status, wire::RecvStatus::kTimeout);
  EXPECT_THROW((void)wire::release_fd(std::move(pair.referee_side)),
               wire::WireError);
  ::close(raw);
}

TEST(Tcp, RoundTripOverARealSocket) {
  wire::TcpListener listener;
  std::unique_ptr<wire::Link> client;
  std::thread connector([&] {
    client = wire::tcp_connect("127.0.0.1", listener.port(), 2000ms);
  });
  std::unique_ptr<wire::Link> server = listener.accept(2000ms);
  connector.join();
  ASSERT_NE(server, nullptr);
  ASSERT_NE(client, nullptr);

  ASSERT_TRUE(client->send(message_of({10, 20, 30})));
  wire::RecvResult up = server->recv(2000ms);
  ASSERT_EQ(up.status, wire::RecvStatus::kOk);
  EXPECT_EQ(up.message, message_of({10, 20, 30}));

  ASSERT_TRUE(server->send(message_of({40})));
  wire::RecvResult down = client->recv(2000ms);
  ASSERT_EQ(down.status, wire::RecvStatus::kOk);
  EXPECT_EQ(down.message, message_of({40}));

  // Counters include the 4-byte transport prefix.
  EXPECT_EQ(client->bytes_sent(), 4u + 3u);
  EXPECT_EQ(server->bytes_received(), 4u + 3u);
}

TEST(Tcp, EmptyMessageIsAValidMessage) {
  wire::TcpListener listener;
  std::unique_ptr<wire::Link> client;
  std::thread connector([&] {
    client = wire::tcp_connect("127.0.0.1", listener.port(), 2000ms);
  });
  std::unique_ptr<wire::Link> server = listener.accept(2000ms);
  connector.join();
  ASSERT_NE(server, nullptr);

  ASSERT_TRUE(client->send({}));
  const wire::RecvResult r = server->recv(2000ms);
  EXPECT_EQ(r.status, wire::RecvStatus::kOk);
  EXPECT_TRUE(r.message.empty());
}

TEST(Tcp, RecvTimesOutWithoutData) {
  wire::TcpListener listener;
  std::unique_ptr<wire::Link> client;
  std::thread connector([&] {
    client = wire::tcp_connect("127.0.0.1", listener.port(), 2000ms);
  });
  std::unique_ptr<wire::Link> server = listener.accept(2000ms);
  connector.join();
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->recv(20ms).status, wire::RecvStatus::kTimeout);
}

TEST(Tcp, CleanCloseAtBoundaryVsShortReadMidMessage) {
  // Clean close: peer sends a whole message, then disconnects.
  {
    wire::TcpListener listener;
    std::unique_ptr<wire::Link> client;
    std::thread connector([&] {
      client = wire::tcp_connect("127.0.0.1", listener.port(), 2000ms);
    });
    std::unique_ptr<wire::Link> server = listener.accept(2000ms);
    connector.join();
    ASSERT_NE(server, nullptr);
    ASSERT_TRUE(client->send(message_of({1})));
    client.reset();  // FIN after a complete message
    EXPECT_EQ(server->recv(2000ms).status, wire::RecvStatus::kOk);
    EXPECT_EQ(server->recv(2000ms).status, wire::RecvStatus::kClosed);
  }
}

TEST(Tcp, LargeMessageSurvivesShortPollingSlices) {
  // Regression: the referee collects with short recv slices; a message
  // bigger than one slice delivers must stay pending across kTimeout
  // returns and eventually arrive intact — early versions declared the
  // stream broken on a mid-message deadline and lost the batch.
  wire::TcpListener listener;
  std::unique_ptr<wire::Link> client;
  std::thread connector([&] {
    client = wire::tcp_connect("127.0.0.1", listener.port(), 2000ms);
  });
  std::unique_ptr<wire::Link> server = listener.accept(2000ms);
  connector.join();
  ASSERT_NE(server, nullptr);

  std::vector<std::uint8_t> big(8u << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  }
  std::thread sender([&] { ASSERT_TRUE(client->send(big)); });

  wire::RecvResult r{wire::RecvStatus::kTimeout, {}};
  for (int slice = 0; slice < 20000 && r.status != wire::RecvStatus::kOk;
       ++slice) {
    r = server->recv(1ms);
    ASSERT_NE(r.status, wire::RecvStatus::kError) << "slice " << slice;
    ASSERT_NE(r.status, wire::RecvStatus::kClosed) << "slice " << slice;
  }
  sender.join();
  ASSERT_EQ(r.status, wire::RecvStatus::kOk);
  EXPECT_EQ(r.message, big);
}

namespace raw {

/// A misbehaving client the Link interface cannot express: writes
/// arbitrary bytes straight to the socket, then closes.
void connect_send_close(std::uint16_t port,
                        const std::vector<std::uint8_t>& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  ::close(fd);
}

}  // namespace raw

TEST(Tcp, ShortReadMidMessageIsAnError) {
  // The client's prefix claims 100 bytes but only 2 arrive before FIN:
  // an unrecoverable short read, not a timeout and not a clean close.
  wire::TcpListener listener;
  std::thread client(raw::connect_send_close, listener.port(),
                     message_of({100, 0, 0, 0, 7, 7}));
  std::unique_ptr<wire::Link> server = listener.accept(2000ms);
  client.join();
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->recv(2000ms).status, wire::RecvStatus::kError);
}

TEST(Tcp, OversizedLengthPrefixIsRejectedWithoutAllocating) {
  // 0xFFFFFFFF-byte claim: reject at the prefix, never allocate.
  wire::TcpListener listener;
  std::thread client(raw::connect_send_close, listener.port(),
                     message_of({0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}));
  std::unique_ptr<wire::Link> server = listener.accept(2000ms);
  client.join();
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->recv(2000ms).status, wire::RecvStatus::kError);
}

TEST(Tcp, ConnectToClosedPortFails) {
  std::uint16_t dead_port = 1;
  {
    wire::TcpListener listener;
    dead_port = listener.port();
  }  // listener destroyed; the port is closed
  EXPECT_THROW((void)wire::tcp_connect("127.0.0.1", dead_port, 500ms),
               wire::WireError);
}

TEST(Tcp, ListenerAcceptTimesOut) {
  wire::TcpListener listener;
  EXPECT_EQ(listener.accept(20ms), nullptr);
}

/// Hand a fresh assembler the prefix announcing `len`, in one fill.  It
/// is written by hand: write_prefix refuses a length above the cap.
wire::MessageAssembler::Step fill_prefix(wire::MessageAssembler& in,
                                         std::uint32_t len) {
  const std::span<std::uint8_t> space = in.space();
  if (space.size() != wire::kPrefixBytes) {
    ADD_FAILURE() << "a fresh assembler reads the prefix first";
    return wire::MessageAssembler::Step::kMore;
  }
  for (std::size_t i = 0; i < wire::kPrefixBytes; ++i) {
    space[i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  return in.fill(wire::kPrefixBytes);
}

TEST(MessageAssembler, PrefixAtTheCapIsAcceptedAndItsBodyAllocated) {
  wire::MessageAssembler in;
  EXPECT_EQ(fill_prefix(in, wire::kMaxMessageBytes),
            wire::MessageAssembler::Step::kMore);
  EXPECT_EQ(in.space().size(), wire::kMaxMessageBytes);
  EXPECT_FALSE(in.at_boundary());
  std::uint8_t prefix[wire::kPrefixBytes] = {};
  EXPECT_TRUE(wire::write_prefix(wire::kMaxMessageBytes, prefix));
}

TEST(MessageAssembler, PrefixOneOverTheCapIsRefusedBeforeAnyBody) {
  wire::MessageAssembler in;
  EXPECT_EQ(fill_prefix(in, wire::kMaxMessageBytes + 1),
            wire::MessageAssembler::Step::kOversized);
  EXPECT_TRUE(in.space().empty());  // no body buffer was made
  std::uint8_t prefix[wire::kPrefixBytes] = {};
  EXPECT_FALSE(wire::write_prefix(wire::kMaxMessageBytes + 1, prefix));
}

TEST(MessageAssembler, EveryChunkingYieldsTheSameMessages) {
  // Messages of 0, 1 and 300 bytes back to back, delivered in slices of
  // every size from 1 to the whole stream: each slice is read into
  // space() as a socket read would be, possibly across several fills.
  std::vector<std::vector<std::uint8_t>> sent = {{}, {0x5A}, {}};
  for (int i = 0; i < 300; ++i) {
    sent[2].push_back(static_cast<std::uint8_t>(i * 37 + 11));
  }
  std::vector<std::uint8_t> stream;
  for (const std::vector<std::uint8_t>& body : sent) {
    std::uint8_t prefix[wire::kPrefixBytes] = {};
    ASSERT_TRUE(wire::write_prefix(body.size(), prefix));
    stream.insert(stream.end(), prefix, prefix + wire::kPrefixBytes);
    stream.insert(stream.end(), body.begin(), body.end());
  }
  for (std::size_t slice = 1; slice <= stream.size(); ++slice) {
    wire::MessageAssembler in;
    std::vector<std::vector<std::uint8_t>> got;
    for (std::size_t at = 0; at < stream.size();) {
      std::size_t left = std::min(slice, stream.size() - at);
      while (left > 0) {
        const std::span<std::uint8_t> space = in.space();
        ASSERT_FALSE(space.empty());
        const std::size_t n = std::min(left, space.size());
        std::memcpy(space.data(), stream.data() + at, n);
        at += n;
        left -= n;
        const wire::MessageAssembler::Step step = in.fill(n);
        ASSERT_NE(step, wire::MessageAssembler::Step::kOversized);
        if (step == wire::MessageAssembler::Step::kMessage) {
          got.push_back(in.take());
          EXPECT_TRUE(in.at_boundary()) << "slice " << slice;
        }
      }
    }
    EXPECT_EQ(got, sent) << "slice " << slice;
    EXPECT_TRUE(in.at_boundary()) << "slice " << slice;
  }
}

}  // namespace
}  // namespace ds
