// Message transports for the wire layer.
//
// A Link moves opaque byte messages between two endpoints; each message is
// a batch of one or more self-delimiting frames (wire/frame.h).  A Link
// is a length-prefixed stream socket (wire/stream_framing.h), of two
// kinds:
//
//   * TCP (wire/tcp.h) — the deployment shape, one connection per player;
//   * loopback (wire/loopback.h) — an AF_UNIX socketpair, for tests,
//     benches, and the byte-accounting audit.
//
// Players drive a Link directly.  The referee does not: it moves each
// connection's socket into its epoll event loop (wire::release_fd,
// evloop/event_loop.h), which drives the same framing.
//
// Contract: send() delivers the whole message or reports failure; recv()
// returns whole messages in order.  Timeouts, peer shutdown, and transport
// corruption are distinct outcomes (RecvStatus): a timeout may be retried,
// a closed link has nothing more to say, an error is reported and the
// link abandoned.
//
// Failure handling (exercised by tests/wire/transport_test.cpp and
// tests/wire/failure_injection_test.cpp; the full cause -> RecvStatus ->
// counter table is in docs/WIRE.md):
//   * recv enforces a deadline via poll(); expiry -> kTimeout, with any
//     partially received message kept pending so a caller polling in
//     short slices can drain a large batch across calls,
//   * a poll() hard failure or POLLNVAL (a dead fd) -> kError — never
//     kTimeout, so a caller abandons the link instead of spinning on it
//     until its deadline,
//   * a peer closing at a message boundary -> kClosed,
//   * EOF mid-prefix or mid-body (a short read) -> kError,
//   * a length prefix above kMaxMessageBytes -> kError without allocating,
//   * send loops over partial writes and suppresses SIGPIPE; a send that
//     fails mid-message latches the link broken (the peer is stranded
//     mid-frame), so every later send/recv fails fast instead of
//     desyncing the framing with a fresh length prefix.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "wire/stream_framing.h"

namespace ds::wire {

/// Failure anywhere in the transport layer (socket setup, bind, connect).
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class RecvStatus : std::uint8_t {
  kOk,       // message holds one whole message
  kTimeout,  // no complete message within the deadline (partial data, if
             // any, stays pending for the next recv)
  kClosed,   // peer shut down cleanly at a message boundary
  kError,    // short read mid-message, oversized length, or socket error
};

struct RecvResult {
  RecvStatus status = RecvStatus::kTimeout;
  std::vector<std::uint8_t> message;
};

class Link;

/// Destroy `link` without closing its socket and return the fd, which
/// the caller now owns.  Throws WireError if `link` is null, or (closing
/// the fd) if it holds part of an inbound message or is latched broken,
/// since a new reader could not find the next message boundary.
[[nodiscard]] int release_fd(std::unique_ptr<Link> link);

class Link {
 public:
  /// Own the connected stream socket `fd`, which the Link closes on
  /// destruction (see also tcp_adopt_fd and release_fd).
  explicit Link(int fd);
  ~Link();
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Deliver one message; false if the peer is gone.
  bool send(std::span<const std::uint8_t> message);

  /// Next whole message, waiting at most `timeout`.
  [[nodiscard]] RecvResult recv(std::chrono::milliseconds timeout);

  /// Bytes this link has put on (and accepted from) the wire, including
  /// any transport-level prefixes — the outermost layer of the
  /// accounting story in docs/WIRE.md.
  [[nodiscard]] std::size_t bytes_sent() const noexcept { return sent_; }
  [[nodiscard]] std::size_t bytes_received() const noexcept {
    return received_;
  }

 private:
  friend int release_fd(std::unique_ptr<Link> link);

  bool send_all(const std::uint8_t* data, std::size_t size, int flags);
  /// Latch the link broken and report the error.
  RecvResult fail() noexcept;

  int fd_;
  std::size_t sent_ = 0;
  std::size_t received_ = 0;
  MessageAssembler in_;  // the in-flight message, kept across timeouts
  bool broken_ = false;
};

}  // namespace ds::wire
