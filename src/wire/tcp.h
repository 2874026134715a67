// TCP endpoints for wire::Link (wire/transport.h), the player side of
// every session (over TCP or over the socketpair loopback): a listener, a
// connect with a real timeout, and adopting a socket connected elsewhere.
// The framing a Link speaks is wire/stream_framing.h's; its failure
// handling is listed in wire/transport.h.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "wire/transport.h"

namespace ds::wire {

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
/// and for embedders that do their own connection establishment.  Its
/// inverse is release_fd (wire/transport.h).
[[nodiscard]] std::unique_ptr<Link> tcp_adopt_fd(int fd);

}  // namespace ds::wire
