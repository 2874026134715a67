// In-process transport: a connected AF_UNIX socketpair with a TcpLink on
// each end.
//
// Loopback exists so the referee service, the audit cross-check, and the
// benches can run the full frame path — encode, batch, send, decode,
// verify — with no network and no flakiness.  Both ends speak the TCP
// transport's length-prefixed framing (wire/tcp.h), so the referee end
// moves into the referee's event loop (wire::release_fd) exactly as an
// accepted TCP connection does.  send() blocks once the kernel's socket
// buffer is full (about 208 KiB by default on Linux), so a thread that
// sends a batch and then serves must keep the batch under that, or send
// from another thread.
#pragma once

#include <memory>

#include "wire/transport.h"

namespace ds::wire {

struct LoopbackPair {
  std::unique_ptr<Link> referee_side;  // the end the referee adopts
  std::unique_ptr<Link> player_side;   // the end the player drives
};

/// A connected pair: bytes sent on one end arrive on the other, in order.
/// Destroying either end closes the link (the survivor sees kClosed after
/// draining).  Throws WireError if the socketpair cannot be created.
[[nodiscard]] LoopbackPair make_loopback_pair();

}  // namespace ds::wire
