// The sharded referee service: serve_protocol / serve_adaptive over a
// ShardedWireSource instead of a WireSource.
//
// Same serve template (detail::serve), same engine, same charging site,
// same decode, same round collector — only the ingestion path differs
// (N epoll shards feeding the combiner, service/shard.h), which is why
// every serve result here is bit-identical to the single-referee
// and simulated runs (tests/audit/shard_audit_test.cpp checks the whole
// protocol zoo, adaptive included).
//
// Connections arrive as raw fds (TcpListener::accept_fd, or a
// socketpair end in tests) and are dealt to shards round-robin, so k
// shards serving c connections each own either floor(c/k) or ceil(c/k)
// of them regardless of accept order.  Vertex ranges stay nominal: a
// player may batch its whole vertex block to whichever shard its
// connection landed on, and the combiner still converges.
#pragma once

#include <memory>
#include <vector>

#include "engine/round_engine.h"
#include "service/referee_service.h"
#include "service/shard.h"

namespace ds::service {

/// One-round service over shards: collect (fanned out), decode,
/// broadcast the result.
template <typename Output>
[[nodiscard]] ServeResult<Output> serve_protocol_sharded(
    std::span<const std::unique_ptr<RefereeShard>> shards,
    const model::SketchingProtocol<Output>& protocol, graph::Vertex n,
    const model::PublicCoins& coins,
    std::chrono::milliseconds timeout = kDefaultRoundTimeout,
    ShardDrive drive = ShardDrive::kAuto) {
  ShardedWireSource source(shards, n, wire::protocol_id(protocol.name()),
                           timeout, drive);
  return detail::serve(
      source, engine::OneRoundReferee<Output>(protocol, coins), n);
}

/// Multi-round adaptive service over shards, inter-round broadcasts
/// pushed through every shard's event loop.
template <typename Output>
[[nodiscard]] ServeResult<Output> serve_adaptive_sharded(
    std::span<const std::unique_ptr<RefereeShard>> shards,
    const model::AdaptiveProtocol<Output>& protocol, graph::Vertex n,
    const model::PublicCoins& coins,
    std::chrono::milliseconds timeout = kDefaultRoundTimeout,
    ShardDrive drive = ShardDrive::kAuto) {
  ShardedWireSource source(shards, n, wire::protocol_id(protocol.name()),
                           timeout, drive);
  return detail::serve(
      source, engine::AdaptiveReferee<Output>(protocol, coins), n);
}

/// Convenience owner: builds k shards, deals adopted fds round-robin,
/// and runs protocols — the sharded sibling of RefereeService.
class ShardedRefereeService {
 public:
  ShardedRefereeService(std::size_t num_shards, std::uint64_t coin_seed,
                        std::chrono::milliseconds timeout = kDefaultRoundTimeout)
      : coins_(coin_seed), timeout_(timeout) {
    const std::size_t k = std::max<std::size_t>(num_shards, 1);
    shards_.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      shards_.push_back(std::make_unique<RefereeShard>(i, k));
    }
  }

  /// Adopt a connected socket (ownership passes to the chosen shard's
  /// event loop).  Returns the shard index it landed on.
  std::size_t adopt_fd(int fd) {
    const std::size_t shard = next_++ % shards_.size();
    shards_[shard]->adopt_fd(fd);
    return shard;
  }

  template <typename Output>
  [[nodiscard]] ServeResult<Output> run(
      const model::SketchingProtocol<Output>& protocol, graph::Vertex n) {
    return serve_protocol_sharded(shards_, protocol, n, coins_, timeout_);
  }

  template <typename Output>
  [[nodiscard]] ServeResult<Output> run_adaptive(
      const model::AdaptiveProtocol<Output>& protocol, graph::Vertex n) {
    return serve_adaptive_sharded(shards_, protocol, n, coins_, timeout_);
  }

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::size_t open_connections() const noexcept {
    std::size_t total = 0;
    for (const auto& shard : shards_) total += shard->open_connections();
    return total;
  }
  [[nodiscard]] const model::PublicCoins& coins() const noexcept {
    return coins_;
  }
  [[nodiscard]] std::span<const std::unique_ptr<RefereeShard>> shards()
      const noexcept {
    return shards_;
  }

 private:
  std::vector<std::unique_ptr<RefereeShard>> shards_;
  model::PublicCoins coins_;
  std::chrono::milliseconds timeout_;
  std::size_t next_ = 0;
};

}  // namespace ds::service
