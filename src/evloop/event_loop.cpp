#include "evloop/event_loop.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "obs/obs.h"
#include "wire/stream_framing.h"

namespace ds::wire {

namespace {

using Clock = std::chrono::steady_clock;

// Sentinel epoll tag for the wake fd: never collides with a connection
// id (ids index conns_, which stays far below 2^64 - 1).
constexpr std::uint64_t kWakeTag = ~std::uint64_t{0};

/// Event-loop counters, one name family per docs/OBSERVABILITY.md; the
/// failure rows mirror the blocking transport's table in docs/WIRE.md.
struct EvloopMetrics {
  obs::Counter& connections = obs::counter("wire.evloop.connections");
  obs::Counter& polls = obs::counter("wire.evloop.polls");
  obs::Counter& messages_received =
      obs::counter("wire.evloop.messages_received");
  obs::Counter& bytes_received = obs::counter("wire.evloop.bytes_received");
  obs::Counter& messages_sent = obs::counter("wire.evloop.messages_sent");
  obs::Counter& bytes_sent = obs::counter("wire.evloop.bytes_sent");
  obs::Counter& clean_closes = obs::counter("wire.evloop.clean_closes");
  obs::Counter& short_reads = obs::counter("wire.evloop.short_reads");
  obs::Counter& oversized_prefix =
      obs::counter("wire.evloop.oversized_prefix");
  obs::Counter& recv_errors = obs::counter("wire.evloop.recv_errors");
  obs::Counter& send_errors = obs::counter("wire.evloop.send_errors");
  obs::Counter& eintr_retries = obs::counter("wire.evloop.eintr_retries");
  obs::Counter& partial_writes = obs::counter("wire.evloop.partial_writes");
  obs::Counter& wakeups = obs::counter("wire.evloop.wakeups");
};

EvloopMetrics& metrics() {
  static EvloopMetrics m;
  return m;
}

int time_left_ms(Clock::time_point deadline) {
  // Round UP: truncation would turn any sub-millisecond remainder into
  // epoll_wait(0), and a caller polling on a 1ms slice would busy-spin
  // with nonblocking waits instead of sleeping — on a shared core that
  // starves the very peers it is waiting for.
  const auto left = deadline - Clock::now();
  if (left <= Clock::duration::zero()) return 0;
  return static_cast<int>(
      std::chrono::ceil<std::chrono::milliseconds>(left).count());
}

}  // namespace

/// One connection's session state: the in-flight inbound message (the
/// same assembler a blocking Link keeps, advanced by readiness instead of
/// by a poll before each read) and the outbound backlog.
struct EventLoop::Conn {
  int fd = -1;
  bool open = false;
  bool want_write = false;  // EPOLLOUT armed

  MessageAssembler in;

  // Outbound backlog: length-prefixed messages corked back to back;
  // [out_done, out.size()) is still owed to the kernel.
  std::vector<std::uint8_t> out;
  std::size_t out_done = 0;

  [[nodiscard]] bool backlog() const noexcept {
    return out_done < out.size();
  }
};

EventLoop::EventLoop() {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) {
    throw WireError("event loop: epoll_create1 failed");
  }
}

EventLoop::~EventLoop() {
  for (auto& conn : conns_) {
    if (conn->open) ::close(conn->fd);
  }
  ::close(epfd_);
}

void EventLoop::add_wake_fd(int fd) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeTag;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    throw WireError("event loop: epoll_ctl(ADD wake fd) failed");
  }
  wake_fd_ = fd;
}

std::size_t EventLoop::add(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->open = true;
  const std::size_t id = conns_.size();
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = id;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    ::close(fd);
    throw WireError("event loop: epoll_ctl(ADD) failed");
  }
  conns_.push_back(std::move(conn));
  ++open_;
  metrics().connections.increment();
  return id;
}

bool EventLoop::is_open(std::size_t id) const noexcept {
  return id < conns_.size() && conns_[id]->open;
}

std::size_t EventLoop::poll_once(std::chrono::milliseconds timeout,
                                 const MessageFn& on_message,
                                 const CloseFn& on_close) {
  const Clock::time_point deadline = Clock::now() + timeout;
  events_.resize(conns_.size() + 1);  // +1: the wake fd's slot
  int n = 0;
  for (;;) {
    n = ::epoll_wait(epfd_, events_.data(), static_cast<int>(events_.size()),
                     time_left_ms(deadline));
    if (n >= 0) break;
    if (errno == EINTR) {
      metrics().eintr_retries.increment();
      continue;
    }
    throw WireError("event loop: epoll_wait failed");
  }
  metrics().polls.increment();
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    const std::size_t id = static_cast<std::size_t>(events_[i].data.u64);
    if (id == kWakeTag) {
      // Consume one wake unit (EFD_SEMAPHORE leaves units for sibling
      // loops sharing the fd); the wake's only job was ending the wait.
      std::uint64_t unit = 0;
      (void)!::read(wake_fd_, &unit, sizeof(unit));
      metrics().wakeups.increment();
      continue;
    }
    Conn& conn = *conns_[id];
    if (!conn.open) continue;  // closed earlier in this same pass
    if ((events_[i].events & EPOLLOUT) != 0) {
      flush_some(id, on_close);
    }
    if (!conn.open) continue;
    if ((events_[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
      drain_read(id, on_message, on_close);
    }
  }
  return static_cast<std::size_t>(n);
}

bool EventLoop::send(std::size_t id, std::span<const std::uint8_t> message) {
  if (id >= conns_.size() || !conns_[id]->open) return false;
  std::uint8_t prefix[kPrefixBytes] = {};
  if (!write_prefix(message.size(), prefix)) return false;
  Conn& conn = *conns_[id];
  // Cork prefix + body (and any messages already queued) into one
  // contiguous backlog: the next flush hands them to the kernel in a
  // single send syscall.
  conn.out.insert(conn.out.end(), prefix, prefix + kPrefixBytes);
  conn.out.insert(conn.out.end(), message.begin(), message.end());
  metrics().messages_sent.increment();
  flush_some(id, nullptr);
  return conn.open;
}

bool EventLoop::flush_all(Clock::time_point deadline,
                          const MessageFn& on_message,
                          const CloseFn& on_close) {
  for (;;) {
    bool pending = false;
    for (const auto& conn : conns_) {
      if (conn->open && conn->backlog()) {
        pending = true;
        break;
      }
    }
    if (!pending) return true;
    const int left = time_left_ms(deadline);
    if (left <= 0) return false;
    poll_once(std::chrono::milliseconds(left), on_message, on_close);
  }
}

void EventLoop::close_conn(std::size_t id, RecvStatus reason,
                           const CloseFn& on_close) {
  Conn& conn = *conns_[id];
  if (!conn.open) return;
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  conn.open = false;
  --open_;
  if (reason == RecvStatus::kClosed) {
    metrics().clean_closes.increment();
  }
  if (on_close) on_close(id, reason);
}

void EventLoop::update_interest(const Conn& conn, std::size_t id) {
  epoll_event ev{};
  ev.events = EPOLLIN | (conn.want_write ? EPOLLOUT : 0u);
  ev.data.u64 = id;
  ::epoll_ctl(epfd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

/// Push the backlog toward the kernel until it drains or the socket
/// stops accepting; arm EPOLLOUT exactly while a remainder exists.
void EventLoop::flush_some(std::size_t id, const CloseFn& on_close) {
  Conn& conn = *conns_[id];
  while (conn.backlog()) {
    const ssize_t n = sys_send(conn.fd, conn.out.data() + conn.out_done,
                               conn.out.size() - conn.out_done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        metrics().eintr_retries.increment();
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        metrics().partial_writes.increment();
        break;
      }
      metrics().send_errors.increment();
      close_conn(id, RecvStatus::kError, on_close);
      return;
    }
    conn.out_done += static_cast<std::size_t>(n);
    sent_ += static_cast<std::size_t>(n);
    metrics().bytes_sent.add(static_cast<std::size_t>(n));
  }
  if (!conn.backlog()) {
    conn.out.clear();
    conn.out_done = 0;
  }
  const bool want = conn.backlog();
  if (want != conn.want_write) {
    conn.want_write = want;
    update_interest(conn, id);
  }
}

/// Drain one readiness event: read into the connection's assembler until
/// the socket runs dry, emitting every completed message.
void EventLoop::drain_read(std::size_t id, const MessageFn& on_message,
                           const CloseFn& on_close) {
  Conn& conn = *conns_[id];
  while (conn.open) {
    const std::span<std::uint8_t> space = conn.in.space();
    const ssize_t n = sys_recv(conn.fd, space.data(), space.size(), 0);
    if (n == 0) {
      // EOF at a message boundary is a clean close; mid-prefix or
      // mid-body the boundary is lost — a short read.
      const bool boundary = conn.in.at_boundary();
      if (!boundary) metrics().short_reads.increment();
      close_conn(id, boundary ? RecvStatus::kClosed : RecvStatus::kError,
                 on_close);
      return;
    }
    if (n < 0) {
      if (errno == EINTR) {
        metrics().eintr_retries.increment();
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // drained
      metrics().recv_errors.increment();
      close_conn(id, RecvStatus::kError, on_close);
      return;
    }
    const MessageAssembler::Step step =
        conn.in.fill(static_cast<std::size_t>(n));
    if (step == MessageAssembler::Step::kOversized) {
      metrics().oversized_prefix.increment();
      close_conn(id, RecvStatus::kError, on_close);
      return;
    }
    if (step == MessageAssembler::Step::kMessage) {
      std::vector<std::uint8_t> message = conn.in.take();
      received_ += kPrefixBytes + message.size();
      metrics().messages_received.increment();
      metrics().bytes_received.add(kPrefixBytes + message.size());
      if (on_message) on_message(id, std::move(message));
    }
  }
}

}  // namespace ds::wire
