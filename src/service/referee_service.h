// The referee as a service: run any existing SketchingProtocol<Output> or
// AdaptiveProtocol<Output> over real links.
//
// This is the round engine's wire configuration: serve_protocol and
// serve_adaptive run engine::run_rounds with a WireSource (frames from
// links instead of in-process encodes) and the service instrumentation
// policy, through detail::serve — the one serve template, which the
// sharded referee (sharded_referee.h) instantiates with its own source.
// The collection loop, the inter-round broadcasts, and — most
// importantly — the bit accounting are therefore the SAME code the
// simulated runners execute: CommStats come from the engine's single
// ChargeSheet site, charged from the wire payloads in vertex order, so
// `result.comm` here and the CommStats of model::run_protocol /
// model::run_adaptive agree bit for bit (the tests/audit cross-check).
// Framing and transport overhead are reported separately in WireStats.
#pragma once

#include "engine/instrumentation.h"
#include "engine/round_engine.h"
#include "model/adaptive.h"
#include "model/protocol.h"
#include "obs/obs.h"
#include "service/output_codec.h"
#include "service/session.h"
#include "service/wire_source.h"

namespace ds::service {

inline constexpr std::chrono::milliseconds kDefaultRoundTimeout{5000};

/// What a served session returns, one-round or adaptive (a one-round
/// session has one by_round entry and no broadcast bits).
template <typename Output>
struct ServeResult {
  Output output;
  model::CommStats comm;                   // per-player totals, all rounds
  std::vector<model::CommStats> by_round;  // per-round breakdown
  std::size_t broadcast_bits = 0;          // model downlink, counted once
                                           // per round as in run_adaptive
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
/// are recorded by RoundCollector::finish (session.cpp), on either path.
struct ServiceInstrumentation {
  [[nodiscard]] obs::ScopedSpan collect_span() const {
    return obs::ScopedSpan("service.collect", &collect_us_histogram());
  }
  [[nodiscard]] obs::ScopedSpan decode_span() const {
    return obs::ScopedSpan("service.decode", &decode_us_histogram());
  }
  void on_sketch_bits(std::size_t) const noexcept {}
  void on_round(unsigned, const model::CommStats&) const noexcept {}
  void on_broadcast(unsigned, const util::BitString&) const noexcept {}
};

/// The one serve template behind every serve_* entry point: the engine's
/// rounds over `source` (a WireSource or a ShardedWireSource), then the
/// decoded output broadcast as the final kResult frame, stamped with the
/// last round.  A Source provides, beside the engine's SketchSource pair
/// collect/deliver_broadcast, protocol_id(), broadcast_frame(header,
/// payload) (counted into its downlink), uplink() and downlink().
template <typename Source, typename Referee>
[[nodiscard]] auto serve(Source& source, const Referee& referee,
                         graph::Vertex n) {
  ServiceInstrumentation instr;
  auto run = engine::run_rounds(n, referee, source, instr);
  using Output = decltype(run.output);
  {
    const obs::ScopedSpan reply_span("service.reply", &reply_us_histogram());
    util::BitWriter w;
    OutputCodec<Output>::encode(run.output, w);
    (void)source.broadcast_frame({wire::FrameType::kResult,
                                  source.protocol_id(), 0,
                                  referee.num_rounds() - 1},
                                 util::BitString(std::move(w)));
  }
  return ServeResult<Output>{std::move(run.output),   run.comm,
                             std::move(run.by_round), run.broadcast_bits,
                             source.uplink(),         source.downlink()};
}
}  // namespace detail

/// One-round service: collect, decode, broadcast the result (the engine's
/// R = 1 case over a WireSource).
template <typename Output>
[[nodiscard]] ServeResult<Output> serve_protocol(
    std::span<const std::unique_ptr<wire::Link>> links,
    const model::SketchingProtocol<Output>& protocol, graph::Vertex n,
    const model::PublicCoins& coins,
    std::chrono::milliseconds timeout = kDefaultRoundTimeout) {
  WireSource source(links, n, wire::protocol_id(protocol.name()), timeout);
  return detail::serve(
      source, engine::OneRoundReferee<Output>(protocol, coins), n);
}

/// Multi-round adaptive service: the same engine loop over real links,
/// with inter-round kBroadcast frames pushed by the WireSource.
template <typename Output>
[[nodiscard]] ServeResult<Output> serve_adaptive(
    std::span<const std::unique_ptr<wire::Link>> links,
    const model::AdaptiveProtocol<Output>& protocol, graph::Vertex n,
    const model::PublicCoins& coins,
    std::chrono::milliseconds timeout = kDefaultRoundTimeout) {
  WireSource source(links, n, wire::protocol_id(protocol.name()), timeout);
  return detail::serve(
      source, engine::AdaptiveReferee<Output>(protocol, coins), n);
}

/// Convenience owner: links + timeout + coins in one object, for the
/// service binary and tests.
class RefereeService {
 public:
  RefereeService(std::vector<std::unique_ptr<wire::Link>> links,
                 std::uint64_t coin_seed,
                 std::chrono::milliseconds timeout = kDefaultRoundTimeout)
      : links_(std::move(links)), coins_(coin_seed), timeout_(timeout) {}

  template <typename Output>
  [[nodiscard]] ServeResult<Output> run(
      const model::SketchingProtocol<Output>& protocol, graph::Vertex n) {
    return serve_protocol(links_, protocol, n, coins_, timeout_);
  }

  template <typename Output>
  [[nodiscard]] ServeResult<Output> run_adaptive(
      const model::AdaptiveProtocol<Output>& protocol, graph::Vertex n) {
    return serve_adaptive(links_, protocol, n, coins_, timeout_);
  }

  [[nodiscard]] std::size_t num_links() const noexcept {
    return links_.size();
  }
  [[nodiscard]] const model::PublicCoins& coins() const noexcept {
    return coins_;
  }
  /// The raw links, for callers (scenario trials) that serve with
  /// per-trial coins via the free serve_* functions instead of coins().
  [[nodiscard]] std::span<const std::unique_ptr<wire::Link>> links()
      const noexcept {
    return links_;
  }
  [[nodiscard]] std::chrono::milliseconds timeout() const noexcept {
    return timeout_;
  }

 private:
  std::vector<std::unique_ptr<wire::Link>> links_;
  model::PublicCoins coins_;
  std::chrono::milliseconds timeout_;
};

}  // namespace ds::service
