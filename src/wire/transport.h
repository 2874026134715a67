// Message transports for the wire layer.
//
// A Link moves opaque byte messages between two endpoints; each message is
// a batch of one or more self-delimiting frames (wire/frame.h).  There is
// one implementation, the length-prefixed stream link of wire/tcp.h, over
// two kinds of socket:
//
//   * TCP (wire/tcp.h) — the deployment shape, one connection per player;
//   * loopback (wire/loopback.h) — an AF_UNIX socketpair, for tests,
//     benches, and the byte-accounting audit.
//
// Players drive a Link directly.  The referee does not: it moves each
// connection's socket into its epoll event loop (wire::release_fd,
// evloop/event_loop.h), which speaks the same framing.
//
// Contract: send() delivers the whole message or reports failure; recv()
// returns whole messages in order.  Timeouts, peer shutdown, and transport
// corruption are distinct outcomes (RecvStatus): a timeout may be retried,
// a closed link has nothing more to say, an error is reported and the
// link abandoned.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

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

class Link {
 public:
  virtual ~Link() = default;
  Link() = default;
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Deliver one message; false if the peer is gone.
  virtual bool send(std::span<const std::uint8_t> message) = 0;

  /// Next whole message, waiting at most `timeout`.
  [[nodiscard]] virtual RecvResult recv(std::chrono::milliseconds timeout) = 0;

  /// Bytes this link has put on (and accepted from) the wire, including
  /// any transport-level prefixes — the outermost layer of the
  /// accounting story in docs/WIRE.md.
  [[nodiscard]] virtual std::size_t bytes_sent() const noexcept = 0;
  [[nodiscard]] virtual std::size_t bytes_received() const noexcept = 0;
};

}  // namespace ds::wire
