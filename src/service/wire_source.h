// The wire-backed SketchSource: the engine's collect() is a round of
// frames gathered from real links, and deliver_broadcast() pushes a
// kBroadcast frame down every link.
//
// This is the second implementation of the engine's SketchSource seam
// (the first is engine/local_source.h): the referee service becomes a
// thin adapter over the same collect/charge/broadcast/decode core the
// simulated runners use — which is exactly why the wire==sim bit-equality
// audit holds by construction instead of by parallel maintenance.
//
// Frame-level wire accounting (payload vs framing vs transport) is kept
// here, strictly separate from the model bits the engine charges
// (docs/WIRE.md); the service.* round metrics are recorded where the
// round is closed, RoundCollector::finish (session.cpp).
#pragma once

#include <chrono>
#include <memory>
#include <span>
#include <vector>

#include "service/session.h"
#include "wire/frame.h"
#include "wire/transport.h"

namespace ds::service {

class WireSource {
 public:
  WireSource(std::span<const std::unique_ptr<wire::Link>> links,
             graph::Vertex n, std::uint32_t protocol_id,
             std::chrono::milliseconds timeout) noexcept
      : links_(links), n_(n), protocol_id_(protocol_id), timeout_(timeout) {}

  /// One engine round: gather exactly one kSketch frame per vertex.
  /// Throws ServiceError if any vertex is missing at the deadline.  The
  /// broadcasts span is unused — wire players hold their own copies,
  /// delivered below.
  [[nodiscard]] std::vector<util::BitString> collect(
      unsigned round, std::span<const util::BitString> /*broadcasts*/) {
    CollectedRound collected = collect_sketch_round(
        links_, n_, protocol_id_, round, timeout_);
    uplink_.merge(collected.wire);
    return std::move(collected.sketches);
  }

  /// Push the referee's inter-round broadcast to every link.
  void deliver_broadcast(unsigned round, const util::BitString& b) {
    (void)broadcast_frame(
        {wire::FrameType::kBroadcast, protocol_id_, 0, round}, b);
  }

  /// Send one referee frame to every link (the kResult reply shares this
  /// with deliver_broadcast); the stats are merged into downlink().
  WireStats broadcast_frame(const wire::FrameHeader& header,
                            const util::BitString& payload) {
    const WireStats stats = broadcast_to_links(links_, header, payload);
    downlink_.merge(stats);
    return stats;
  }

  [[nodiscard]] std::uint32_t protocol_id() const noexcept {
    return protocol_id_;
  }
  [[nodiscard]] const WireStats& uplink() const noexcept { return uplink_; }
  [[nodiscard]] const WireStats& downlink() const noexcept {
    return downlink_;
  }

 private:
  std::span<const std::unique_ptr<wire::Link>> links_;
  graph::Vertex n_;
  std::uint32_t protocol_id_;
  std::chrono::milliseconds timeout_;
  WireStats uplink_;
  WireStats downlink_;
};

}  // namespace ds::service
