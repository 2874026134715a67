#include "wire/loopback.h"

#include <sys/socket.h>

#include "wire/tcp.h"

namespace ds::wire {

LoopbackPair make_loopback_pair() {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    throw WireError("make_loopback_pair: socketpair failed");
  }
  return {tcp_adopt_fd(fds[0]), tcp_adopt_fd(fds[1])};
}

}  // namespace ds::wire
