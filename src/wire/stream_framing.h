// Stream framing: how whole messages cross a stream socket, and the one
// place the socket calls that carry them are made.
//
// Each message is a 4-byte little-endian length prefix followed by the
// body (a batch of self-delimiting frames, wire/frame.h).  The prefix is
// transport framing only — it exists so a stream socket can recover whole
// messages — and is charged to transport bytes, never to the model's bit
// accounting.
//
// One machine, two drivers.  wire::Link (wire/transport.h) polls its one
// blocking socket before each read; wire::EventLoop (evloop/event_loop.h)
// reads its nonblocking sockets until EAGAIN.  Both read into
// MessageAssembler::space() and report the count to fill(), so both draw
// the same lines:
//   * EOF at a message boundary (at_boundary()) is a clean close; EOF
//     anywhere else is a short read;
//   * a prefix above kMaxMessageBytes is refused before any body buffer
//     exists;
//   * anything else is progress, or a finished message to take().
// Each driver counts those outcomes under its own name family
// (wire.tcp.*, wire.evloop.*; docs/WIRE.md has the table).
#pragma once

#include <poll.h>
#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ds::wire {

/// Hard cap on one message body; a corrupt prefix must not OOM the
/// referee. 64 MiB >> any sketch batch in this codebase.
inline constexpr std::uint32_t kMaxMessageBytes = 64u << 20;

/// Length of the prefix in front of every message body.
inline constexpr std::size_t kPrefixBytes = 4;

/// Write the prefix announcing a `size`-byte body into `out`.  False,
/// writing nothing, for a body above kMaxMessageBytes, which no reader
/// would accept.
[[nodiscard]] bool write_prefix(
    std::size_t size, std::span<std::uint8_t, kPrefixBytes> out) noexcept;

/// The inbound half: one message at a time, reassembled from whatever
/// slices the socket delivers.  Progress survives between reads, so a
/// driver may stop anywhere (a deadline, EAGAIN) and resume later.
class MessageAssembler {
 public:
  enum class Step : std::uint8_t {
    kMore,       // the message is still incomplete
    kMessage,    // the message is complete: take() it
    kOversized,  // the prefix announced more than kMaxMessageBytes;
                 // nothing was allocated, and the stream has no next
                 // boundary to read on from
  };

  /// Where the next bytes of the stream go.  Never empty until fill()
  /// returns kMessage (then call take()) or kOversized (then stop).
  [[nodiscard]] std::span<std::uint8_t> space() noexcept;

  /// Account `n` bytes, at most space().size(), just read into space().
  [[nodiscard]] Step fill(std::size_t n);

  /// The completed message; the assembler is at a boundary again.
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept;

  /// True while no byte of the next message has arrived: EOF here is a
  /// clean close, and a new reader of the socket would start in step.
  [[nodiscard]] bool at_boundary() const noexcept {
    return prefix_done_ == 0;
  }

 private:
  std::uint8_t prefix_[kPrefixBytes] = {};
  std::size_t prefix_done_ = 0;
  std::vector<std::uint8_t> body_;
  std::size_t body_done_ = 0;
};

/// ::poll, ::recv and ::send, unless a test installed a hook in their
/// place (wire/test_hooks.h).  Both drivers make every such call here, so
/// one injection harness reaches both.
int sys_poll(pollfd* fds, nfds_t nfds, int timeout_ms);
ssize_t sys_recv(int fd, void* buf, std::size_t len, int flags);
ssize_t sys_send(int fd, const void* buf, std::size_t len, int flags);

}  // namespace ds::wire
