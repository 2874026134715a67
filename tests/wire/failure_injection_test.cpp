// Deterministic failure injection for the TCP transport, via the syscall
// hooks in wire/test_hooks.h and a socketpair() peer (wire::tcp_adopt_fd).
// Every documented failure mode (docs/WIRE.md's cause -> RecvStatus ->
// counter table) is produced on demand and asserted to map to the right
// RecvStatus AND bump the right wire.tcp.* counter — including the two
// regressions this suite exists for:
//
//   * a poll() hard failure used to be reported as kTimeout, so the
//     session loop would spin on a dead fd until the round deadline
//     (PollHardFailureMapsToErrorNotTimeout),
//   * a send that failed after a partial write did not latch the link,
//     so a retried send would emit a fresh length prefix into the middle
//     of the half-sent frame and silently desync the framing
//     (RetriedSendAfterFailureCannotDesyncFraming).
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <vector>

#include "obs/obs.h"
#include "wire/tcp.h"
#include "wire/test_hooks.h"

namespace ds {
namespace {

using namespace std::chrono_literals;

// Hook scratch state.  Capture-less lambdas only convert to the hook
// function-pointer types, so per-test behavior lives here; each test
// resets what it uses.
std::atomic<int> g_fail_remaining{0};
std::atomic<int> g_send_calls{0};

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

class FailureInjection : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_metrics_enabled(true);
    obs::reset();
    int fds[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    link_ = wire::tcp_adopt_fd(fds[0]);
    peer_fd_ = fds[1];
    g_fail_remaining.store(0);
    g_send_calls.store(0);
  }

  void TearDown() override {
    wire::testhooks::reset();
    close_peer();
    link_.reset();
    obs::set_metrics_enabled(false);
  }

  void close_peer() {
    if (peer_fd_ >= 0) ::close(peer_fd_);
    peer_fd_ = -1;
  }

  std::unique_ptr<wire::Link> link_;
  int peer_fd_ = -1;
};

TEST_F(FailureInjection, PollHardFailureMapsToErrorNotTimeout) {
  // Pre-fix, a poll() failure fell into the timeout branch: recv reported
  // kTimeout and the caller kept polling a dead fd.
  wire::testhooks::set_poll(+[](pollfd*, nfds_t, int) -> int {
    errno = EBADF;
    return -1;
  });
  const wire::RecvResult r = link_->recv(100ms);
  EXPECT_EQ(r.status, wire::RecvStatus::kError);
  EXPECT_EQ(obs::counter("wire.tcp.poll_errors").value(), 1u);
  EXPECT_EQ(obs::counter("wire.tcp.recv_timeouts").value(), 0u);

  // The failure latched the link: later recvs fail fast, without
  // touching poll at all.
  wire::testhooks::reset();
  const wire::RecvResult again = link_->recv(10ms);
  EXPECT_EQ(again.status, wire::RecvStatus::kError);
  EXPECT_EQ(obs::counter("wire.tcp.broken_reuse").value(), 1u);
}

TEST_F(FailureInjection, PollEintrIsRetriedTransparently) {
  g_fail_remaining.store(2);
  wire::testhooks::set_poll(+[](pollfd* fds, nfds_t nfds,
                                int timeout_ms) -> int {
    if (g_fail_remaining.fetch_sub(1) > 0) {
      errno = EINTR;
      return -1;
    }
    return ::poll(fds, nfds, timeout_ms);
  });
  write_raw(peer_fd_, frame_bytes({1, 2, 3}));
  const wire::RecvResult r = link_->recv(2000ms);
  ASSERT_EQ(r.status, wire::RecvStatus::kOk);
  EXPECT_EQ(r.message, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_GE(obs::counter("wire.tcp.eintr_retries").value(), 2u);
}

TEST_F(FailureInjection, RecvEintrMidMessageIsRetried) {
  g_fail_remaining.store(1);
  wire::testhooks::set_recv(
      +[](int fd, void* buf, std::size_t len, int flags) -> ssize_t {
        if (g_fail_remaining.fetch_sub(1) > 0) {
          errno = EINTR;
          return -1;
        }
        return ::recv(fd, buf, len, flags);
      });
  write_raw(peer_fd_, frame_bytes({9, 8, 7, 6}));
  const wire::RecvResult r = link_->recv(2000ms);
  ASSERT_EQ(r.status, wire::RecvStatus::kOk);
  EXPECT_EQ(r.message, (std::vector<std::uint8_t>{9, 8, 7, 6}));
  EXPECT_GE(obs::counter("wire.tcp.eintr_retries").value(), 1u);
}

TEST_F(FailureInjection, SendEintrMidMessageIsRetried) {
  g_fail_remaining.store(1);
  wire::testhooks::set_send(
      +[](int fd, const void* buf, std::size_t len, int flags) -> ssize_t {
        if (g_fail_remaining.fetch_sub(1) > 0) {
          errno = EINTR;
          return -1;
        }
        return ::send(fd, buf, len, flags);
      });
  const std::vector<std::uint8_t> body{5, 5, 5, 5, 5};
  ASSERT_TRUE(link_->send(body));
  EXPECT_GE(obs::counter("wire.tcp.eintr_retries").value(), 1u);

  wire::testhooks::reset();
  std::vector<std::uint8_t> got(frame_bytes(body).size(), 0);
  ASSERT_EQ(::recv(peer_fd_, got.data(), got.size(), 0),
            static_cast<ssize_t>(got.size()));
  EXPECT_EQ(got, frame_bytes(body));
}

TEST_F(FailureInjection, RetriedSendAfterFailureCannotDesyncFraming) {
  // Call 1 delivers the 4-byte prefix, call 2 delivers only half the
  // body, call 3 fails hard: the peer is now stranded mid-frame.
  wire::testhooks::set_send(
      +[](int fd, const void* buf, std::size_t len, int flags) -> ssize_t {
        const int call = g_send_calls.fetch_add(1) + 1;
        if (call == 1) return ::send(fd, buf, len, flags);
        if (call == 2) return ::send(fd, buf, len / 2, flags);
        errno = ECONNRESET;
        return -1;
      });
  const std::vector<std::uint8_t> body(64, 0xAB);
  EXPECT_FALSE(link_->send(body));
  EXPECT_EQ(obs::counter("wire.tcp.send_failures").value(), 1u);
  EXPECT_EQ(obs::counter("wire.tcp.partial_writes").value(), 1u);
  EXPECT_EQ(link_->bytes_sent(), 0u);  // failed sends are never charged

  // Pre-fix, this retry wrote a fresh "[len][body...]" into the middle
  // of the half-sent frame.  Now the link is latched broken: the retry
  // fails fast without a single syscall.
  const int calls_before = g_send_calls.load();
  EXPECT_FALSE(link_->send(body));
  EXPECT_EQ(g_send_calls.load(), calls_before);
  EXPECT_EQ(obs::counter("wire.tcp.broken_reuse").value(), 1u);

  // What the peer sees is a short read mid-frame — an unambiguous error,
  // never a plausible kOk message assembled across the desync.
  wire::testhooks::reset();
  link_.reset();  // close our end so the peer hits EOF
  std::unique_ptr<wire::Link> peer = wire::tcp_adopt_fd(peer_fd_);
  peer_fd_ = -1;  // ownership moved
  const wire::RecvResult r = peer->recv(2000ms);
  EXPECT_EQ(r.status, wire::RecvStatus::kError);
  EXPECT_EQ(obs::counter("wire.tcp.short_reads").value(), 1u);
}

TEST_F(FailureInjection, OversizedPrefixIsRejectedBeforeAllocating) {
  const std::uint32_t len = wire::kMaxMessageBytes + 1;
  write_raw(peer_fd_,
            {static_cast<std::uint8_t>(len), static_cast<std::uint8_t>(len >> 8),
             static_cast<std::uint8_t>(len >> 16),
             static_cast<std::uint8_t>(len >> 24)});
  const wire::RecvResult r = link_->recv(2000ms);
  EXPECT_EQ(r.status, wire::RecvStatus::kError);
  EXPECT_EQ(obs::counter("wire.tcp.oversized_prefix").value(), 1u);
}

TEST_F(FailureInjection, EofMidBodyIsShortReadError) {
  std::vector<std::uint8_t> partial = frame_bytes(std::vector<std::uint8_t>(10, 1));
  partial.resize(4 + 3);  // prefix promises 10 body bytes, deliver 3
  write_raw(peer_fd_, partial);
  close_peer();
  const wire::RecvResult r = link_->recv(2000ms);
  EXPECT_EQ(r.status, wire::RecvStatus::kError);
  EXPECT_EQ(obs::counter("wire.tcp.short_reads").value(), 1u);
}

TEST_F(FailureInjection, CloseAtMessageBoundaryIsClean) {
  close_peer();
  const wire::RecvResult r = link_->recv(2000ms);
  EXPECT_EQ(r.status, wire::RecvStatus::kClosed);
  EXPECT_EQ(obs::counter("wire.tcp.clean_closes").value(), 1u);
  EXPECT_EQ(obs::counter("wire.tcp.short_reads").value(), 0u);
}

TEST_F(FailureInjection, TimeoutKeepsPartialProgress) {
  // Half a message, then a timeout, then the rest: the deadline expiring
  // must not discard the bytes already read.
  const std::vector<std::uint8_t> body{1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<std::uint8_t> framed = frame_bytes(body);
  write_raw(peer_fd_, {framed.begin(), framed.begin() + 6});
  const wire::RecvResult first = link_->recv(50ms);
  EXPECT_EQ(first.status, wire::RecvStatus::kTimeout);
  EXPECT_EQ(obs::counter("wire.tcp.recv_timeouts").value(), 1u);

  write_raw(peer_fd_, {framed.begin() + 6, framed.end()});
  const wire::RecvResult second = link_->recv(2000ms);
  ASSERT_EQ(second.status, wire::RecvStatus::kOk);
  EXPECT_EQ(second.message, body);
}

}  // namespace
}  // namespace ds
