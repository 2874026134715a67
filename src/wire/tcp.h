// TCP transport: the player side of every session (over TCP or over the
// socketpair loopback).
//
// Each Link message is sent as a 4-byte little-endian length prefix
// followed by the body (a batch of self-delimiting frames).  The prefix is
// transport framing only — it exists so a stream socket can recover whole
// messages — and is charged to transport bytes, never to the model's bit
// accounting.
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
#include <string>

#include "wire/transport.h"

namespace ds::wire {

/// Hard cap on one message body; a corrupt prefix must not OOM the
/// referee. 64 MiB >> any sketch batch in this codebase.
inline constexpr std::uint32_t kMaxMessageBytes = 64u << 20;

/// Listening socket on 127.0.0.1 (port 0 = kernel-assigned; read the
/// chosen one back from port()).
class TcpListener {
 public:
  explicit TcpListener(std::uint16_t port = 0);
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Next inbound connection, or nullptr if none arrived in time.
  [[nodiscard]] std::unique_ptr<Link> accept(
      std::chrono::milliseconds timeout);

  /// Next inbound connection as a raw fd (ownership passes to the
  /// caller), or -1 if none arrived in time.  The referee adopts accepted
  /// fds straight into its event loop (service::RefereeService::adopt_fd).
  [[nodiscard]] int accept_fd(std::chrono::milliseconds timeout);

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Connect to a referee at host:port (numeric IPv4, e.g. "127.0.0.1").
/// Throws WireError on failure.
[[nodiscard]] std::unique_ptr<Link> tcp_connect(
    const std::string& host, std::uint16_t port,
    std::chrono::milliseconds timeout);

/// Wrap an already-connected stream socket (ownership of `fd` passes to
/// the Link, which closes it on destruction).  Exists for the
/// failure-injection tests — socketpair() gives a deterministic peer —
/// and for embedders that do their own connection establishment.
[[nodiscard]] std::unique_ptr<Link> tcp_adopt_fd(int fd);

/// The inverse of tcp_adopt_fd: destroy `link` without closing its
/// socket and return the fd, which the caller now owns.  `link` must come
/// from this file or from make_loopback_pair.  Throws WireError (closing
/// the fd) if it does not, or if it holds part of an inbound message or
/// is latched broken, since a new reader could not find the next message
/// boundary.
[[nodiscard]] int release_fd(std::unique_ptr<Link> link);

}  // namespace ds::wire
