#include "wire/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/obs.h"

namespace ds::wire {

namespace {

using Clock = std::chrono::steady_clock;

// -------------------------------------------------------------------
// Failure-mode and throughput counters (docs/OBSERVABILITY.md; the
// cause -> RecvStatus -> counter table lives in docs/WIRE.md).
// -------------------------------------------------------------------
struct TcpMetrics {
  obs::Counter& messages_sent = obs::counter("wire.tcp.messages_sent");
  obs::Counter& messages_received =
      obs::counter("wire.tcp.messages_received");
  obs::Counter& bytes_sent = obs::counter("wire.tcp.bytes_sent");
  obs::Counter& bytes_received = obs::counter("wire.tcp.bytes_received");
  obs::Histogram& message_bytes = obs::histogram("wire.tcp.message_bytes");
  obs::Counter& recv_timeouts = obs::counter("wire.tcp.recv_timeouts");
  obs::Counter& poll_errors = obs::counter("wire.tcp.poll_errors");
  obs::Counter& clean_closes = obs::counter("wire.tcp.clean_closes");
  obs::Counter& short_reads = obs::counter("wire.tcp.short_reads");
  obs::Counter& oversized_prefix =
      obs::counter("wire.tcp.oversized_prefix");
  obs::Counter& recv_errors = obs::counter("wire.tcp.recv_errors");
  obs::Counter& send_failures = obs::counter("wire.tcp.send_failures");
  obs::Counter& broken_reuse = obs::counter("wire.tcp.broken_reuse");
  obs::Counter& eintr_retries = obs::counter("wire.tcp.eintr_retries");
  obs::Counter& partial_writes = obs::counter("wire.tcp.partial_writes");
  obs::Counter& accepts = obs::counter("wire.tcp.accepts");
  obs::Counter& connects = obs::counter("wire.tcp.connects");
};

TcpMetrics& metrics() {
  static TcpMetrics m;
  return m;
}

[[noreturn]] void throw_errno(const std::string& what) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): glibc strerror uses a
  // thread-local buffer, and strerror_r's two signatures (GNU vs POSIX)
  // are not portably selectable at this standard level.
  throw WireError(what + ": " + std::strerror(errno));
}

std::chrono::milliseconds time_left(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return left.count() > 0 ? left : std::chrono::milliseconds(0);
}

/// Deadline expiry and a failed poll() are different events and must
/// stay distinguishable: collapsing them (the pre-fix bug) made a polling
/// caller spin on a dead fd until its deadline, reporting kTimeout the
/// whole way.
enum class PollOutcome : std::uint8_t { kReady, kTimeout, kError };

/// Wait until fd is readable, the deadline expires, or poll itself
/// fails.  POLLNVAL (a bad fd) is an error; POLLERR/POLLHUP report
/// kReady so the subsequent recv() can surface the precise condition.
PollOutcome poll_readable(int fd, Clock::time_point deadline) {
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    const auto left = time_left(deadline);
    const int rc = sys_poll(&pfd, 1, static_cast<int>(left.count()));
    if (rc > 0) {
      if ((pfd.revents & POLLNVAL) != 0) {
        metrics().poll_errors.increment();
        return PollOutcome::kError;
      }
      return PollOutcome::kReady;
    }
    if (rc == 0) return PollOutcome::kTimeout;
    if (errno == EINTR) {
      metrics().eintr_retries.increment();
      continue;
    }
    metrics().poll_errors.increment();
    return PollOutcome::kError;
  }
}

}  // namespace

Link::Link(int fd) : fd_(fd) {
  const int one = 1;
  // Sketch rounds are latency-bound request/response exchanges; never
  // let Nagle hold a round's final partial segment.
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Link::~Link() {
  if (fd_ >= 0) ::close(fd_);
}

bool Link::send(std::span<const std::uint8_t> message) {
  // A partial write leaves the peer mid-frame with no way to find the
  // next boundary; the link is latched broken so a retried send fails
  // fast instead of writing a fresh length prefix into the middle of
  // the half-sent frame and silently desyncing the stream.
  if (broken_) {
    metrics().broken_reuse.increment();
    return false;
  }
  std::uint8_t prefix[kPrefixBytes] = {};
  if (!write_prefix(message.size(), prefix)) return false;
  // MSG_MORE corks the 4-byte prefix with the body: one wire segment
  // per message instead of a tiny prefix packet followed by the batch.
  if (!send_all(prefix, sizeof(prefix), MSG_MORE) ||
      !send_all(message.data(), message.size(), 0)) {
    broken_ = true;
    metrics().send_failures.increment();
    return false;
  }
  sent_ += sizeof(prefix) + message.size();
  metrics().messages_sent.increment();
  metrics().bytes_sent.add(sizeof(prefix) + message.size());
  metrics().message_bytes.record(message.size());
  return true;
}

// Partial progress survives across recv() calls (in_): a caller polling
// with short timeout slices must be able to drain a message larger than
// one slice delivers.  Only EOF or a socket error mid-message is
// unrecoverable — the boundary is lost.
RecvResult Link::recv(std::chrono::milliseconds timeout) {
  if (broken_) {
    metrics().broken_reuse.increment();
    return {RecvStatus::kError, {}};
  }
  const Clock::time_point deadline = Clock::now() + timeout;
  for (;;) {
    const PollOutcome ready = poll_readable(fd_, deadline);
    if (ready == PollOutcome::kTimeout) {
      metrics().recv_timeouts.increment();
      return {RecvStatus::kTimeout, {}};
    }
    if (ready == PollOutcome::kError) return fail();
    const std::span<std::uint8_t> space = in_.space();
    const ssize_t n = sys_recv(fd_, space.data(), space.size(), 0);
    if (n == 0) {
      // EOF before any byte of a message is a clean close; EOF with a
      // partial message is a short read.
      if (in_.at_boundary()) {
        metrics().clean_closes.increment();
        return {RecvStatus::kClosed, {}};
      }
      metrics().short_reads.increment();
      return fail();
    }
    if (n < 0) {
      if (errno == EINTR) {
        metrics().eintr_retries.increment();
      } else if (errno != EAGAIN) {
        metrics().recv_errors.increment();
        return fail();
      }
      continue;
    }
    const MessageAssembler::Step step = in_.fill(static_cast<std::size_t>(n));
    if (step == MessageAssembler::Step::kOversized) {
      metrics().oversized_prefix.increment();
      return fail();
    }
    if (step == MessageAssembler::Step::kMessage) {
      std::vector<std::uint8_t> message = in_.take();
      received_ += kPrefixBytes + message.size();
      metrics().messages_received.increment();
      metrics().bytes_received.add(kPrefixBytes + message.size());
      return {RecvStatus::kOk, std::move(message)};
    }
  }
}

bool Link::send_all(const std::uint8_t* data, std::size_t size, int flags) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n =
        sys_send(fd_, data + done, size - done, MSG_NOSIGNAL | flags);
    if (n < 0) {
      if (errno == EINTR) {
        metrics().eintr_retries.increment();
        continue;
      }
      return false;
    }
    if (static_cast<std::size_t>(n) < size - done) {
      metrics().partial_writes.increment();
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

RecvResult Link::fail() noexcept {
  broken_ = true;
  return {RecvStatus::kError, {}};
}

TcpListener::TcpListener(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd_);
    fd_ = -1;
    throw_errno("bind");
  }
  if (::listen(fd_, SOMAXCONN) < 0) {
    ::close(fd_);
    fd_ = -1;
    throw_errno("listen");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) <
      0) {
    ::close(fd_);
    fd_ = -1;
    throw_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<Link> TcpListener::accept(std::chrono::milliseconds timeout) {
  const int client = accept_fd(timeout);
  if (client < 0) return nullptr;
  return std::make_unique<Link>(client);
}

int TcpListener::accept_fd(std::chrono::milliseconds timeout) {
  const Clock::time_point deadline = Clock::now() + timeout;
  if (poll_readable(fd_, deadline) != PollOutcome::kReady) return -1;
  const int client = ::accept(fd_, nullptr, nullptr);
  if (client < 0) return -1;
  metrics().accepts.increment();
  return client;
}

std::unique_ptr<Link> tcp_adopt_fd(int fd) {
  return std::make_unique<Link>(fd);
}

int release_fd(std::unique_ptr<Link> link) {
  if (link == nullptr) throw WireError("release_fd: no link");
  // Only at a message boundary: a new reader must start in step.
  if (link->broken_ || !link->in_.at_boundary()) {
    throw WireError("release_fd: the link is broken or mid-message");
  }
  return std::exchange(link->fd_, -1);
}

std::unique_ptr<Link> tcp_connect(const std::string& host, std::uint16_t port,
                                  std::chrono::milliseconds timeout) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw WireError("tcp_connect: bad IPv4 address '" + host + "'");
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");

  // Non-blocking connect so the timeout is honored.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS) {
    ::close(fd);
    throw_errno("connect");
  }
  if (rc < 0) {
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (ready <= 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) < 0 ||
        err != 0) {
      ::close(fd);
      throw WireError("tcp_connect: connection to " + host + " failed");
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  metrics().connects.increment();
  return std::make_unique<Link>(fd);
}

}  // namespace ds::wire
