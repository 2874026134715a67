// The referee as a service: run any model::Protocol<Output> over real
// connections.
//
// This is the round engine's wire configuration: serve_protocol runs
// engine::run_rounds with a ShardedWireSource (frames from the referee
// shards' event loops, service/shard.h, instead of in-process encodes)
// and the service instrumentation policy, then broadcasts the decoded
// output.  The collection loop, the inter-round broadcasts (pushed as
// kBroadcast frames through every shard's event loop), and — most
// importantly — the bit accounting are therefore the SAME code the
// simulated runner executes: CommStats come from the engine's single
// ChargeSheet site, charged from the wire payloads in vertex order, so
// `result.comm` here and the CommStats of model::run_protocol agree bit
// for bit, at any shard count (tests/audit/wire_audit_test.cpp,
// shard_audit_test.cpp).  Framing and transport overhead are reported
// separately in WireStats.
//
// Connections arrive as raw fds (TcpListener::accept_fd, or the referee
// end of a loopback pair via wire::release_fd) and are dealt to shards
// round-robin, so k shards serving c connections each own either
// floor(c/k) or ceil(c/k) of them regardless of accept order.  Vertex
// ranges stay nominal: a player may batch its whole vertex block to
// whichever shard its connection landed on, and the combiner still
// converges.
#pragma once

#include <algorithm>
#include <chrono>
#include <memory>
#include <span>
#include <vector>

#include "engine/instrumentation.h"
#include "engine/round_engine.h"
#include "model/protocol.h"
#include "obs/obs.h"
#include "service/output_codec.h"
#include "service/session.h"
#include "service/shard.h"
#include "wire/tcp.h"

namespace ds::service {

inline constexpr std::chrono::milliseconds kDefaultRoundTimeout{5000};

/// What a served session returns (a one-round session has one by_round
/// entry and no broadcast bits).
template <typename Output>
struct ServeResult {
  Output output;
  model::CommStats comm;                   // per-player totals, all rounds
  std::vector<model::CommStats> by_round;  // per-round breakdown
  std::size_t broadcast_bits = 0;          // model downlink, counted once
                                           // per round as in run_protocol
  WireStats uplink;
  WireStats downlink;
};

namespace detail {
/// Session-phase timings of every serve: collect -> decode -> reply
/// (docs/OBSERVABILITY.md; service.accept_us is the service binary's).
inline obs::Histogram& collect_us_histogram() {
  static obs::Histogram& h = obs::histogram("service.collect_us");
  return h;
}
inline obs::Histogram& decode_us_histogram() {
  static obs::Histogram& h = obs::histogram("service.decode_us");
  return h;
}
inline obs::Histogram& reply_us_histogram() {
  static obs::Histogram& h = obs::histogram("service.reply_us");
  return h;
}

/// Engine Instrumentation policy for the service: the collect and decode
/// spans.  The per-round frame metrics (service.sketch_bits and friends)
/// are recorded by RoundCollector::finish (session.cpp).
struct ServiceInstrumentation {
  [[nodiscard]] obs::ScopedSpan collect_span() const {
    return obs::ScopedSpan("service.collect", &collect_us_histogram());
  }
  [[nodiscard]] obs::ScopedSpan decode_span() const {
    return obs::ScopedSpan("service.decode", &decode_us_histogram());
  }
  void on_sketch_bits(std::size_t) const noexcept {}
  void on_round(unsigned, unsigned,
                const model::CommStats&) const noexcept {}
  void on_broadcast(unsigned, const util::BitString&) const noexcept {}
};

}  // namespace detail

/// Serve every round of `protocol` over the shards — collect, charge,
/// broadcast between rounds, decode — then broadcast the decoded output
/// as the final kResult frame, stamped with the last round.
template <typename Output>
[[nodiscard]] ServeResult<Output> serve_protocol(
    std::span<const std::unique_ptr<RefereeShard>> shards,
    const model::Protocol<Output>& protocol, graph::Vertex n,
    const model::PublicCoins& coins,
    std::chrono::milliseconds timeout = kDefaultRoundTimeout) {
  ShardedWireSource source(shards, n, wire::protocol_id(protocol.name()),
                           timeout);
  detail::ServiceInstrumentation instr;
  engine::EngineResult<Output> run =
      engine::run_rounds(n, protocol, coins, source, instr);
  {
    const obs::ScopedSpan reply_span("service.reply",
                                     &detail::reply_us_histogram());
    util::BitWriter w;
    OutputCodec<Output>::encode(run.output, w);
    (void)source.broadcast_frame({wire::FrameType::kResult,
                                  source.protocol_id(), 0,
                                  protocol.num_rounds() - 1},
                                 util::BitString(std::move(w)));
  }
  return {std::move(run.output),   run.comm,
          std::move(run.by_round), run.broadcast_bits,
          source.uplink(),         source.downlink()};
}

/// Convenience owner: k shards + timeout + coins in one object, for the
/// service binary, scenario trials and tests.
class RefereeService {
 public:
  /// `num_shards` shards (at least one) with no connections yet; add them
  /// with adopt_fd.
  explicit RefereeService(std::size_t num_shards, std::uint64_t coin_seed,
                          std::chrono::milliseconds timeout =
                              kDefaultRoundTimeout)
      : coins_(coin_seed), timeout_(timeout) {
    const std::size_t k = std::max<std::size_t>(num_shards, 1);
    shards_.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      shards_.push_back(std::make_unique<RefereeShard>(i, k));
    }
  }

  /// One shard serving `links`: each link's socket moves into the shard's
  /// event loop (wire::release_fd, which throws for a link that is not at
  /// a message boundary).
  RefereeService(std::vector<std::unique_ptr<wire::Link>> links,
                 std::uint64_t coin_seed,
                 std::chrono::milliseconds timeout = kDefaultRoundTimeout)
      : RefereeService(1, coin_seed, timeout) {
    for (std::unique_ptr<wire::Link>& link : links) {
      (void)adopt_fd(wire::release_fd(std::move(link)));
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
      const model::Protocol<Output>& protocol, graph::Vertex n) {
    return serve_protocol(shards_, protocol, n, coins_, timeout_);
  }

  [[nodiscard]] const model::PublicCoins& coins() const noexcept {
    return coins_;
  }
  /// The shards, for callers (scenario trials) that serve with per-trial
  /// coins via the free serve_protocol instead of coins().
  [[nodiscard]] std::span<const std::unique_ptr<RefereeShard>> links()
      const noexcept {
    return shards_;
  }
  [[nodiscard]] std::chrono::milliseconds timeout() const noexcept {
    return timeout_;
  }

 private:
  std::vector<std::unique_ptr<RefereeShard>> shards_;
  model::PublicCoins coins_;
  std::chrono::milliseconds timeout_;
  std::size_t next_ = 0;
};

}  // namespace ds::service
