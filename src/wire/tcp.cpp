#include "wire/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/obs.h"
#include "wire/test_hooks.h"

namespace ds::wire {

namespace {

using Clock = std::chrono::steady_clock;

// -------------------------------------------------------------------
// Test hooks: unset (the default) routes straight to the real syscall.
// -------------------------------------------------------------------
std::atomic<testhooks::PollFn> g_poll_hook{nullptr};
std::atomic<testhooks::RecvFn> g_recv_hook{nullptr};
std::atomic<testhooks::SendFn> g_send_hook{nullptr};

int sys_poll(pollfd* fds, nfds_t nfds, int timeout_ms) {
  const testhooks::PollFn fn = g_poll_hook.load(std::memory_order_relaxed);
  return fn != nullptr ? fn(fds, nfds, timeout_ms)
                       : ::poll(fds, nfds, timeout_ms);
}

ssize_t sys_recv(int fd, void* buf, std::size_t len, int flags) {
  const testhooks::RecvFn fn = g_recv_hook.load(std::memory_order_relaxed);
  return fn != nullptr ? fn(fd, buf, len, flags)
                       : ::recv(fd, buf, len, flags);
}

ssize_t sys_send(int fd, const void* buf, std::size_t len, int flags) {
  const testhooks::SendFn fn = g_send_hook.load(std::memory_order_relaxed);
  return fn != nullptr ? fn(fd, buf, len, flags)
                       : ::send(fd, buf, len, flags);
}

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

class TcpLink final : public Link {
 public:
  explicit TcpLink(int fd) : fd_(fd) {
    const int one = 1;
    // Sketch rounds are latency-bound request/response exchanges; never
    // let Nagle hold a round's final partial segment.
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  ~TcpLink() override {
    if (fd_ >= 0) ::close(fd_);
  }

  bool send(std::span<const std::uint8_t> message) override {
    // A partial write leaves the peer mid-frame with no way to find the
    // next boundary; the link is latched broken so a retried send fails
    // fast instead of writing a fresh length prefix into the middle of
    // the half-sent frame and silently desyncing the stream.
    if (broken_) {
      metrics().broken_reuse.increment();
      return false;
    }
    if (message.size() > kMaxMessageBytes) return false;
    std::uint8_t prefix[4];
    const auto len = static_cast<std::uint32_t>(message.size());
    prefix[0] = static_cast<std::uint8_t>(len);
    prefix[1] = static_cast<std::uint8_t>(len >> 8);
    prefix[2] = static_cast<std::uint8_t>(len >> 16);
    prefix[3] = static_cast<std::uint8_t>(len >> 24);
    // MSG_MORE corks the 4-byte prefix with the body: one wire segment
    // per message instead of a tiny prefix packet followed by the batch.
    if (!send_all(prefix, sizeof(prefix), MSG_MORE) ||
        !send_all(message.data(), message.size())) {
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

  // Partial progress survives across recv() calls: a caller polling with
  // short timeout slices must be able to drain a message larger than one
  // slice delivers.  Only EOF or a socket error mid-message is
  // unrecoverable — the boundary is lost.
  RecvResult recv(std::chrono::milliseconds timeout) override {
    if (broken_) {
      metrics().broken_reuse.increment();
      return {RecvStatus::kError, {}};
    }
    const Clock::time_point deadline = Clock::now() + timeout;

    if (prefix_done_ < sizeof(prefix_)) {
      const ReadOutcome head =
          fill(prefix_, sizeof(prefix_), prefix_done_, deadline);
      if (head == ReadOutcome::kTimeout) {
        metrics().recv_timeouts.increment();
        return {RecvStatus::kTimeout, {}};
      }
      if (head == ReadOutcome::kEof) {
        // EOF before any byte of a message is a clean close; EOF with a
        // partial prefix is a short read.
        if (prefix_done_ == 0) {
          metrics().clean_closes.increment();
          return {RecvStatus::kClosed, {}};
        }
        broken_ = true;
        metrics().short_reads.increment();
        return {RecvStatus::kError, {}};
      }
      if (head == ReadOutcome::kError) {
        broken_ = true;
        return {RecvStatus::kError, {}};
      }
    }
    if (!have_len_) {
      const std::uint32_t len = static_cast<std::uint32_t>(prefix_[0]) |
                                static_cast<std::uint32_t>(prefix_[1]) << 8 |
                                static_cast<std::uint32_t>(prefix_[2]) << 16 |
                                static_cast<std::uint32_t>(prefix_[3]) << 24;
      if (len > kMaxMessageBytes) {  // reject before allocating
        broken_ = true;
        metrics().oversized_prefix.increment();
        return {RecvStatus::kError, {}};
      }
      body_.assign(len, 0);
      body_done_ = 0;
      have_len_ = true;
    }
    if (body_done_ < body_.size()) {
      const ReadOutcome outcome =
          fill(body_.data(), body_.size(), body_done_, deadline);
      if (outcome == ReadOutcome::kTimeout) {
        metrics().recv_timeouts.increment();
        return {RecvStatus::kTimeout, {}};
      }
      if (outcome != ReadOutcome::kDone) {  // EOF or error mid-message
        broken_ = true;
        if (outcome == ReadOutcome::kEof) metrics().short_reads.increment();
        return {RecvStatus::kError, {}};
      }
    }
    received_ += sizeof(prefix_) + body_.size();
    metrics().messages_received.increment();
    metrics().bytes_received.add(sizeof(prefix_) + body_.size());
    RecvResult result{RecvStatus::kOk, std::move(body_)};
    prefix_done_ = 0;
    have_len_ = false;
    body_ = {};
    body_done_ = 0;
    return result;
  }

  [[nodiscard]] std::size_t bytes_sent() const noexcept override {
    return sent_;
  }
  [[nodiscard]] std::size_t bytes_received() const noexcept override {
    return received_;
  }

  /// Hand the fd to the caller (release_fd): only at a message boundary.
  int release() {
    if (broken_ || prefix_done_ > 0) {
      throw WireError("release_fd: the link is broken or mid-message");
    }
    return std::exchange(fd_, -1);
  }

 private:
  enum class ReadOutcome : std::uint8_t { kDone, kTimeout, kEof, kError };

  bool send_all(const std::uint8_t* data, std::size_t size, int flags = 0) {
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

  /// Advance `done` toward `size` until complete or `deadline`.  On
  /// kTimeout the progress made so far is kept (in `done`) for the next
  /// call; kEof/kError report the socket's state.
  ReadOutcome fill(std::uint8_t* data, std::size_t size, std::size_t& done,
                   Clock::time_point deadline) {
    while (done < size) {
      const PollOutcome ready = poll_readable(fd_, deadline);
      if (ready == PollOutcome::kTimeout) return ReadOutcome::kTimeout;
      if (ready == PollOutcome::kError) return ReadOutcome::kError;
      const ssize_t n = sys_recv(fd_, data + done, size - done, 0);
      if (n == 0) return ReadOutcome::kEof;
      if (n < 0) {
        if (errno == EINTR) {
          metrics().eintr_retries.increment();
          continue;
        }
        if (errno == EAGAIN) continue;
        metrics().recv_errors.increment();
        return ReadOutcome::kError;
      }
      done += static_cast<std::size_t>(n);
    }
    return ReadOutcome::kDone;
  }

  int fd_;
  std::size_t sent_ = 0;
  std::size_t received_ = 0;

  // In-flight message state, preserved across recv() timeouts.
  std::uint8_t prefix_[4] = {};
  std::size_t prefix_done_ = 0;
  bool have_len_ = false;
  std::vector<std::uint8_t> body_;
  std::size_t body_done_ = 0;
  bool broken_ = false;
};

}  // namespace

namespace testhooks {

void set_poll(PollFn fn) noexcept {
  g_poll_hook.store(fn, std::memory_order_relaxed);
}
void set_recv(RecvFn fn) noexcept {
  g_recv_hook.store(fn, std::memory_order_relaxed);
}
void set_send(SendFn fn) noexcept {
  g_send_hook.store(fn, std::memory_order_relaxed);
}
PollFn poll_hook() noexcept {
  return g_poll_hook.load(std::memory_order_relaxed);
}
RecvFn recv_hook() noexcept {
  return g_recv_hook.load(std::memory_order_relaxed);
}
SendFn send_hook() noexcept {
  return g_send_hook.load(std::memory_order_relaxed);
}

void reset() noexcept {
  set_poll(nullptr);
  set_recv(nullptr);
  set_send(nullptr);
}

}  // namespace testhooks

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
  return std::make_unique<TcpLink>(client);
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
  return std::make_unique<TcpLink>(fd);
}

int release_fd(std::unique_ptr<Link> link) {
  auto* tcp = dynamic_cast<TcpLink*>(link.get());
  if (tcp == nullptr) throw WireError("release_fd: not a TCP link");
  return tcp->release();
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
  return std::make_unique<TcpLink>(fd);
}

}  // namespace ds::wire
