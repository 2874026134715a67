// The epoll event loop against the blocking transport's contract: the
// same framing, the same failure taxonomy, the same syscall hooks.
//
// The core claim (docs/WIRE.md) is that a peer cannot tell an EventLoop
// connection from a blocking TcpLink — so these tests drive the loop
// through socketpair() peers byte at a time, with injected EINTR/EAGAIN
// and truncations, and assert the loop reassembles exactly the messages
// (and reports exactly the failure modes) the whole-message TcpLink path
// produces for the same bytes.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "evloop/event_loop.h"
#include "obs/obs.h"
#include "wire/frame.h"
#include "wire/tcp.h"
#include "wire/test_hooks.h"

namespace ds {
namespace {

using namespace std::chrono_literals;

// Hook scratch state (capture-less lambdas only convert to the hook
// function-pointer types); each test resets what it uses.
std::atomic<int> g_fail_remaining{0};
std::atomic<int> g_send_budget{0};  // bytes a hooked send may deliver

std::vector<std::uint8_t> frame_bytes(const std::vector<std::uint8_t>& body) {
  const auto len = static_cast<std::uint32_t>(body.size());
  std::vector<std::uint8_t> bytes(4 + body.size());
  bytes[0] = static_cast<std::uint8_t>(len);
  bytes[1] = static_cast<std::uint8_t>(len >> 8);
  bytes[2] = static_cast<std::uint8_t>(len >> 16);
  bytes[3] = static_cast<std::uint8_t>(len >> 24);
  std::copy(body.begin(), body.end(), bytes.begin() + 4);
  return bytes;
}

void write_raw(int fd, const std::vector<std::uint8_t>& bytes) {
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
}

/// One received message or close event, in arrival order.
struct LoopEvents {
  std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> messages;
  std::vector<std::pair<std::size_t, wire::RecvStatus>> closes;

  wire::EventLoop::MessageFn on_message() {
    return [this](std::size_t conn, std::vector<std::uint8_t> message) {
      messages.emplace_back(conn, std::move(message));
    };
  }
  wire::EventLoop::CloseFn on_close() {
    return [this](std::size_t conn, wire::RecvStatus reason) {
      closes.emplace_back(conn, reason);
    };
  }
};

class EventLoopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_metrics_enabled(true);
    obs::reset();
    int fds[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    conn_ = loop_.add(fds[0]);
    peer_fd_ = fds[1];
    g_fail_remaining.store(0);
    g_send_budget.store(0);
  }

  void TearDown() override {
    wire::testhooks::reset();
    close_peer();
    obs::set_metrics_enabled(false);
  }

  void close_peer() {
    if (peer_fd_ >= 0) ::close(peer_fd_);
    peer_fd_ = -1;
  }

  /// Poll until `events.messages` holds `want` messages or ~2s pass.
  void poll_until_messages(LoopEvents& events, std::size_t want) {
    const auto give_up = std::chrono::steady_clock::now() + 2s;
    while (events.messages.size() < want &&
           std::chrono::steady_clock::now() < give_up) {
      loop_.poll_once(10ms, events.on_message(), events.on_close());
    }
  }

  wire::EventLoop loop_;
  std::size_t conn_ = 0;
  int peer_fd_ = -1;
};

TEST_F(EventLoopTest, ByteAtATimeReassemblyMatchesWholeMessage) {
  // The same bytes a blocking TcpLink would hand up as one message,
  // dripped one byte per readiness event: identical reassembly.
  const std::vector<std::uint8_t> body{7, 0, 42, 255, 1, 2, 3};
  const std::vector<std::uint8_t> framed = frame_bytes(body);
  LoopEvents events;
  for (const std::uint8_t byte : framed) {
    write_raw(peer_fd_, {byte});
    loop_.poll_once(50ms, events.on_message(), events.on_close());
  }
  poll_until_messages(events, 1);
  ASSERT_EQ(events.messages.size(), 1u);
  EXPECT_EQ(events.messages[0].first, conn_);
  EXPECT_EQ(events.messages[0].second, body);
  EXPECT_TRUE(events.closes.empty());
  EXPECT_EQ(loop_.bytes_received(), framed.size());
}

TEST_F(EventLoopTest, ManyMessagesInOneReadinessEventAllArriveInOrder) {
  // A pipelining client corks several messages into one TCP segment; a
  // single drain must peel them all off, in order.
  std::vector<std::uint8_t> wire_bytes;
  for (std::uint8_t i = 0; i < 5; ++i) {
    const std::vector<std::uint8_t> framed =
        frame_bytes({i, static_cast<std::uint8_t>(i + 1)});
    wire_bytes.insert(wire_bytes.end(), framed.begin(), framed.end());
  }
  write_raw(peer_fd_, wire_bytes);
  LoopEvents events;
  poll_until_messages(events, 5);
  ASSERT_EQ(events.messages.size(), 5u);
  for (std::uint8_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events.messages[i].second,
              (std::vector<std::uint8_t>{i, static_cast<std::uint8_t>(i + 1)}));
  }
}

TEST_F(EventLoopTest, ZeroLengthMessageIsDelivered) {
  write_raw(peer_fd_, frame_bytes({}));
  LoopEvents events;
  poll_until_messages(events, 1);
  ASSERT_EQ(events.messages.size(), 1u);
  EXPECT_TRUE(events.messages[0].second.empty());
}

TEST_F(EventLoopTest, RecvEintrIsRetriedTransparently) {
  g_fail_remaining.store(2);
  wire::testhooks::set_recv(
      +[](int fd, void* buf, std::size_t len, int flags) -> ssize_t {
        if (g_fail_remaining.fetch_sub(1) > 0) {
          errno = EINTR;
          return -1;
        }
        return ::recv(fd, buf, len, flags);
      });
  write_raw(peer_fd_, frame_bytes({1, 2, 3}));
  LoopEvents events;
  poll_until_messages(events, 1);
  ASSERT_EQ(events.messages.size(), 1u);
  EXPECT_EQ(events.messages[0].second, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_GE(obs::counter("wire.evloop.eintr_retries").value(), 2u);
}

TEST_F(EventLoopTest, InjectedEagainMidBodySuspendsAndResumes) {
  // EAGAIN mid-body must suspend the state machine (not error, not
  // drop) and the next readiness pass must resume exactly where it
  // stopped — the partial-read analogue of TimeoutKeepsPartialProgress
  // in the blocking suite.
  g_fail_remaining.store(1);
  wire::testhooks::set_recv(
      +[](int fd, void* buf, std::size_t len, int flags) -> ssize_t {
        if (len > 4 && g_fail_remaining.fetch_sub(1) > 0) {
          // First body read only: pretend the socket ran dry.
          errno = EAGAIN;
          return -1;
        }
        return ::recv(fd, buf, len, flags);
      });
  const std::vector<std::uint8_t> body{9, 9, 9, 9, 9, 9, 9, 9};
  write_raw(peer_fd_, frame_bytes(body));
  LoopEvents events;
  poll_until_messages(events, 1);
  ASSERT_EQ(events.messages.size(), 1u);
  EXPECT_EQ(events.messages[0].second, body);
  EXPECT_TRUE(events.closes.empty());
}

TEST_F(EventLoopTest, OversizedPrefixIsRejectedBeforeAllocating) {
  const std::uint32_t len = wire::kMaxMessageBytes + 1;
  write_raw(peer_fd_, {static_cast<std::uint8_t>(len),
                       static_cast<std::uint8_t>(len >> 8),
                       static_cast<std::uint8_t>(len >> 16),
                       static_cast<std::uint8_t>(len >> 24)});
  LoopEvents events;
  loop_.poll_once(500ms, events.on_message(), events.on_close());
  ASSERT_EQ(events.closes.size(), 1u);
  EXPECT_EQ(events.closes[0].second, wire::RecvStatus::kError);
  EXPECT_EQ(obs::counter("wire.evloop.oversized_prefix").value(), 1u);
  EXPECT_EQ(loop_.open_connections(), 0u);
  EXPECT_FALSE(loop_.is_open(conn_));
}

TEST_F(EventLoopTest, EofMidBodyIsShortReadError) {
  std::vector<std::uint8_t> partial =
      frame_bytes(std::vector<std::uint8_t>(10, 1));
  partial.resize(4 + 3);  // prefix promises 10 body bytes, deliver 3
  write_raw(peer_fd_, partial);
  close_peer();
  LoopEvents events;
  loop_.poll_once(500ms, events.on_message(), events.on_close());
  ASSERT_EQ(events.closes.size(), 1u);
  EXPECT_EQ(events.closes[0].second, wire::RecvStatus::kError);
  EXPECT_EQ(obs::counter("wire.evloop.short_reads").value(), 1u);
  EXPECT_TRUE(events.messages.empty());
}

TEST_F(EventLoopTest, CloseAtMessageBoundaryIsClean) {
  // A complete message then EOF: the message arrives, then a kClosed —
  // the same clean/short distinction the blocking link draws.
  const std::vector<std::uint8_t> body{4, 4, 4};
  write_raw(peer_fd_, frame_bytes(body));
  close_peer();
  LoopEvents events;
  loop_.poll_once(500ms, events.on_message(), events.on_close());
  ASSERT_EQ(events.messages.size(), 1u);
  EXPECT_EQ(events.messages[0].second, body);
  ASSERT_EQ(events.closes.size(), 1u);
  EXPECT_EQ(events.closes[0].second, wire::RecvStatus::kClosed);
  EXPECT_EQ(obs::counter("wire.evloop.clean_closes").value(), 1u);
  EXPECT_EQ(obs::counter("wire.evloop.short_reads").value(), 0u);
}

TEST_F(EventLoopTest, SendIsByteIdenticalToBlockingLink) {
  // A blocking TcpLink on the peer end must parse the loop's output as
  // one ordinary message: same prefix, same body, same accounting.
  const std::vector<std::uint8_t> body{11, 22, 33, 44};
  ASSERT_TRUE(loop_.send(conn_, body));
  LoopEvents events;
  ASSERT_TRUE(loop_.flush_all(std::chrono::steady_clock::now() + 2s,
                              events.on_message(), events.on_close()));
  std::unique_ptr<wire::Link> peer = wire::tcp_adopt_fd(peer_fd_);
  peer_fd_ = -1;  // ownership moved
  const wire::RecvResult r = peer->recv(2000ms);
  ASSERT_EQ(r.status, wire::RecvStatus::kOk);
  EXPECT_EQ(r.message, body);
  EXPECT_EQ(loop_.bytes_sent(), 4 + body.size());
}

TEST_F(EventLoopTest, BackloggedWritesDrainViaEpollout) {
  // A send hook that trickles 3 bytes per call (EAGAIN between calls)
  // forces the backlog/EPOLLOUT path; the peer must still read every
  // message intact and in order.
  g_send_budget.store(0);
  wire::testhooks::set_send(
      +[](int fd, const void* buf, std::size_t len, int flags) -> ssize_t {
        if (g_send_budget.fetch_add(1) % 2 == 0) {
          errno = EAGAIN;
          return -1;
        }
        return ::send(fd, buf, std::min<std::size_t>(len, 3), flags);
      });
  const std::vector<std::uint8_t> first{1, 2, 3, 4, 5, 6, 7};
  const std::vector<std::uint8_t> second{8, 9};
  ASSERT_TRUE(loop_.send(conn_, first));
  ASSERT_TRUE(loop_.send(conn_, second));
  LoopEvents events;
  ASSERT_TRUE(loop_.flush_all(std::chrono::steady_clock::now() + 5s,
                              events.on_message(), events.on_close()));
  EXPECT_GE(obs::counter("wire.evloop.partial_writes").value(), 1u);

  wire::testhooks::reset();
  std::unique_ptr<wire::Link> peer = wire::tcp_adopt_fd(peer_fd_);
  peer_fd_ = -1;
  const wire::RecvResult r1 = peer->recv(2000ms);
  ASSERT_EQ(r1.status, wire::RecvStatus::kOk);
  EXPECT_EQ(r1.message, first);
  const wire::RecvResult r2 = peer->recv(2000ms);
  ASSERT_EQ(r2.status, wire::RecvStatus::kOk);
  EXPECT_EQ(r2.message, second);
}

TEST_F(EventLoopTest, SendEintrAndShortWritesAreRetried) {
  // The loop's flush is the referee's only downlink: an EINTR must be
  // retried and a short write must leave the rest queued, so the peer
  // still reads the message whole.
  g_fail_remaining.store(1);
  wire::testhooks::set_send(
      +[](int fd, const void* buf, std::size_t len, int flags) -> ssize_t {
        if (g_fail_remaining.fetch_sub(1) > 0) {
          errno = EINTR;
          return -1;
        }
        return ::send(fd, buf, std::min<std::size_t>(len, 5), flags);
      });
  const std::vector<std::uint8_t> body{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  ASSERT_TRUE(loop_.send(conn_, body));
  LoopEvents events;
  ASSERT_TRUE(loop_.flush_all(std::chrono::steady_clock::now() + 2s,
                              events.on_message(), events.on_close()));
  EXPECT_GE(obs::counter("wire.evloop.eintr_retries").value(), 1u);
  EXPECT_EQ(loop_.bytes_sent(), 4 + body.size());
  EXPECT_TRUE(events.closes.empty());

  wire::testhooks::reset();
  std::unique_ptr<wire::Link> peer = wire::tcp_adopt_fd(peer_fd_);
  peer_fd_ = -1;
  const wire::RecvResult r = peer->recv(2000ms);
  ASSERT_EQ(r.status, wire::RecvStatus::kOk);
  EXPECT_EQ(r.message, body);
}

TEST_F(EventLoopTest, SketchFramesSurviveTheLoopBitForBit) {
  // End to end at the frame layer: a batch built by the frame codec,
  // sent whole by a blocking link, received by the loop in drips, must
  // decode to identical headers and payloads.
  util::BitWriter w;
  w.put_bits(0b101101, 6);
  const util::BitString payload(std::move(w));
  const wire::FrameHeader header{wire::FrameType::kSketch, 77, 3, 1};
  std::vector<std::uint8_t> batch;
  (void)wire::encode_frame(header, payload, batch);

  std::unique_ptr<wire::Link> peer = wire::tcp_adopt_fd(peer_fd_);
  peer_fd_ = -1;
  ASSERT_TRUE(peer->send(batch));
  LoopEvents events;
  poll_until_messages(events, 1);
  ASSERT_EQ(events.messages.size(), 1u);

  wire::FrameWalker walker(events.messages[0].second);
  wire::FrameView frame;
  ASSERT_TRUE(walker.next(frame));
  EXPECT_EQ(frame.header, header);
  const util::BitString decoded = frame.copy_payload();
  EXPECT_EQ(decoded.bit_count(), payload.bit_count());
  EXPECT_EQ(decoded.words(), payload.words());
  EXPECT_FALSE(walker.next(frame));
  EXPECT_EQ(walker.status(), wire::DecodeStatus::kOk);
}

}  // namespace
}  // namespace ds
