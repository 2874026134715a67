// Epoll-driven event loop: the referee's ingestion path.
//
// A blocking link (wire/transport.h) waits on one socket per recv; a
// referee multiplexing hundreds of players cannot.  wire::EventLoop
// instead owns N nonblocking fds behind one epoll instance and keeps a
// per-connection MessageAssembler (wire/stream_framing.h), so a single
// poll_once() drains every connection that has bytes — a message is
// reassembled incrementally across as many readiness events as the
// kernel delivers it in, never requiring a whole message per syscall
// slice.
//
// The loop is the second driver of the link's framing machine, not a
// copy of it: the same prefix writer, the same assembler, the same
// kMaxMessageBytes cap rejected before allocation, the same hooked
// syscalls.  A peer speaking to a wire::Link and a peer speaking to an
// EventLoop connection cannot tell the difference — that is what lets
// the referee's shards serve the blocking player client.
//
// Failure modes are the link's taxonomy (docs/WIRE.md), counted under
// wire.evloop.*: EOF at a message boundary -> kClosed; EOF mid-prefix or
// mid-body -> kError (short read); an oversized prefix -> kError before
// allocating; a socket error -> kError; EINTR is retried transparently
// and EAGAIN simply ends the drain for that readiness event.  The
// syscall test hooks (wire/test_hooks.h) reach the loop exactly as they
// reach the link, so the failure-injection suite drives both with one
// harness.
//
// Writes are queued per connection in one contiguous backlog (prefix and
// body corked together, several messages coalescing into one send
// syscall) and flushed as the socket drains, with EPOLLOUT armed only
// while a backlog exists.  The loop is single-threaded by design: one
// shard = one loop = one thread (service/shard.h).
#pragma once

#include <sys/epoll.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "wire/transport.h"

namespace ds::wire {

class EventLoop {
 public:
  /// A complete length-prefixed message arrived on `conn`.
  using MessageFn =
      std::function<void(std::size_t conn, std::vector<std::uint8_t> message)>;
  /// `conn` left the loop: kClosed for a clean EOF at a message boundary,
  /// kError for a short read / oversized prefix / socket error.  The fd
  /// is already closed when this fires.
  using CloseFn = std::function<void(std::size_t conn, RecvStatus reason)>;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Adopt an fd (ownership passes to the loop; it is switched to
  /// nonblocking and registered for read readiness).  Returns the
  /// connection id used in every callback.  Throws WireError on
  /// registration failure.
  std::size_t add(int fd);

  /// Register a wake fd (typically an eventfd, NOT owned by the loop): a
  /// write to it makes a sleeping poll_once return immediately.  One
  /// pending unit is consumed per pass; no message or close callback
  /// fires.  A multi-shard referee uses a shared semaphore eventfd so the
  /// shard accepting a round's final frame can cut every sibling's
  /// poll slice short instead of letting them sleep it out.  Throws
  /// WireError on registration failure.
  void add_wake_fd(int fd);

  /// Connections still registered (added minus closed).
  [[nodiscard]] std::size_t open_connections() const noexcept {
    return open_;
  }
  [[nodiscard]] bool is_open(std::size_t conn) const noexcept;

  /// One epoll_wait pass: waits at most `timeout` for readiness, then
  /// drains every ready connection, invoking `on_message` per completed
  /// message (several per connection per pass are normal) and `on_close`
  /// as connections die.  Returns the number of connections that had
  /// events (0 on a pure timeout).  EINTR is retried within the timeout.
  std::size_t poll_once(std::chrono::milliseconds timeout,
                        const MessageFn& on_message, const CloseFn& on_close);

  /// Queue one length-prefixed message on `conn` and flush as much as the
  /// socket accepts without blocking; the rest drains via EPOLLOUT on
  /// subsequent poll_once calls.  Returns false if the connection is gone
  /// or the message exceeds kMaxMessageBytes.
  bool send(std::size_t conn, std::span<const std::uint8_t> message);

  /// Block (polling the loop) until every queued write on every live
  /// connection has reached the kernel, or `deadline` passes.  Returns
  /// true when all backlogs drained.  Incoming messages that arrive while
  /// flushing are delivered to `on_message` (never dropped).
  bool flush_all(std::chrono::steady_clock::time_point deadline,
                 const MessageFn& on_message, const CloseFn& on_close);

  /// Transport-level byte accounting, aggregated over all connections
  /// (prefixes included), same contract as Link::bytes_sent/received.
  [[nodiscard]] std::size_t bytes_sent() const noexcept { return sent_; }
  [[nodiscard]] std::size_t bytes_received() const noexcept {
    return received_;
  }

 private:
  struct Conn;

  void close_conn(std::size_t id, RecvStatus reason, const CloseFn& on_close);
  void update_interest(const Conn& conn, std::size_t id);
  void flush_some(std::size_t id, const CloseFn& on_close);
  void drain_read(std::size_t id, const MessageFn& on_message,
                  const CloseFn& on_close);

  int epfd_ = -1;
  int wake_fd_ = -1;  // not owned; -1 until add_wake_fd
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<epoll_event> events_;
  std::size_t open_ = 0;
  std::size_t sent_ = 0;
  std::size_t received_ = 0;
};

}  // namespace ds::wire
