#include "wire/stream_framing.h"

#include <sys/socket.h>

#include <atomic>
#include <utility>

#include "wire/bytes.h"
#include "wire/test_hooks.h"

namespace ds::wire {

namespace {

// Unset (the default) routes straight to the real syscall.
std::atomic<testhooks::PollFn> g_poll_hook{nullptr};
std::atomic<testhooks::RecvFn> g_recv_hook{nullptr};
std::atomic<testhooks::SendFn> g_send_hook{nullptr};

}  // namespace

bool write_prefix(std::size_t size,
                  std::span<std::uint8_t, kPrefixBytes> out) noexcept {
  if (size > kMaxMessageBytes) return false;
  for (std::size_t i = 0; i < kPrefixBytes; ++i) {
    out[i] = static_cast<std::uint8_t>(size >> (8 * i));
  }
  return true;
}

std::span<std::uint8_t> MessageAssembler::space() noexcept {
  if (prefix_done_ < kPrefixBytes) {
    return std::span<std::uint8_t>(prefix_).subspan(prefix_done_);
  }
  return std::span<std::uint8_t>(body_).subspan(body_done_);
}

MessageAssembler::Step MessageAssembler::fill(std::size_t n) {
  if (prefix_done_ < kPrefixBytes) {
    prefix_done_ += n;
    if (prefix_done_ < kPrefixBytes) return Step::kMore;
    const std::uint32_t len = ByteReader(prefix_).get_u32_le().value();
    if (len > kMaxMessageBytes) return Step::kOversized;  // before allocating
    body_.assign(len, 0);
  } else {
    body_done_ += n;
  }
  return body_done_ == body_.size() ? Step::kMessage : Step::kMore;
}

std::vector<std::uint8_t> MessageAssembler::take() noexcept {
  prefix_done_ = 0;
  body_done_ = 0;
  return std::exchange(body_, {});
}

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

void reset() noexcept {
  set_poll(nullptr);
  set_recv(nullptr);
  set_send(nullptr);
}

}  // namespace testhooks

}  // namespace ds::wire
