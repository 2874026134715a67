// The player side of the wire: encode owned vertices, batch the frames
// into one message, send, and await the referee's response.
//
// A client may own any subset of the vertices (one process per vertex is
// the literal model; one process per shard is the practical deployment —
// the frames are identical either way, which is the point).  Encoding
// runs the protocol's encode_round on a VertexView built from the local
// graph shard (engine::graph_view_fn, the engine's LocalSource views), so
// a player's uplink bits are byte-for-byte the bits the simulated runner
// charges.
#pragma once

#include <algorithm>

#include "engine/local_source.h"
#include "graph/graph.h"
#include "model/protocol.h"
#include "service/output_codec.h"
#include "service/referee_service.h"
#include "service/session.h"

namespace ds::service {

/// Per-player uplink accounting the client observed (payload bits match
/// what the referee will charge for these vertices).
struct PlayerSendStats {
  std::size_t frames = 0;
  std::size_t payload_bits = 0;
  std::size_t framing_bits = 0;
};

/// Encode round `round` of `protocol` for the `owned` vertices of `g` (a
/// Graph or a WeightedGraph), seeing the referee's `broadcasts` of the
/// rounds before it, and send the sketches as one batched message of
/// kSketch frames.  Throws ServiceError if the link rejects the send.
template <typename G, typename Output>
PlayerSendStats send_sketches(
    wire::Link& link, const G& g, std::span<const graph::Vertex> owned,
    const model::Protocol<Output>& protocol, const model::PublicCoins& coins,
    unsigned round = 0, std::span<const util::BitString> broadcasts = {}) {
  const std::uint32_t proto = wire::protocol_id(protocol.name());
  const auto view_of = engine::graph_view_fn(g, coins);
  std::vector<std::uint8_t> batch;
  PlayerSendStats stats;
  for (const graph::Vertex v : owned) {
    util::BitWriter writer;
    protocol.encode_round(view_of(v), round, broadcasts, writer);
    const util::BitString sketch(std::move(writer));
    stats.framing_bits += append_sketch_frame(batch, proto, v, round, sketch);
    stats.payload_bits += sketch.bit_count();
    ++stats.frames;
  }
  if (!link.send(batch)) {
    throw ServiceError("player: referee link rejected the sketch batch");
  }
  return stats;
}

/// Block until the referee's kResult frame arrives and decode it.
template <typename Output>
[[nodiscard]] Output await_result(
    wire::Link& link, const model::Protocol<Output>& protocol,
    std::chrono::milliseconds timeout = kDefaultRoundTimeout) {
  const wire::Frame frame =
      await_referee_frame(link, wire::FrameType::kResult,
                          wire::protocol_id(protocol.name()), timeout);
  util::BitReader reader(frame.payload);
  return OutputCodec<Output>::decode(reader);
}

/// The client: take part in every round of `protocol` (encode with the
/// broadcasts received so far), then decode the final kResult frame.
template <typename G, typename Output>
[[nodiscard]] Output play_protocol(
    wire::Link& link, const G& g, std::span<const graph::Vertex> owned,
    const model::Protocol<Output>& protocol, const model::PublicCoins& coins,
    std::chrono::milliseconds timeout = kDefaultRoundTimeout) {
  std::vector<util::BitString> broadcasts;
  for (unsigned round = 0; round < protocol.num_rounds(); ++round) {
    if (round > 0) {
      broadcasts.push_back(
          await_referee_frame(link, wire::FrameType::kBroadcast,
                              wire::protocol_id(protocol.name()), timeout)
              .payload);
    }
    (void)send_sketches(link, g, owned, protocol, coins, round, broadcasts);
  }
  return await_result(link, protocol, timeout);
}

/// Split [0, n) into `players` contiguous shards; shard i is the vertex
/// set client i owns.  Every caller with the same (n, players) computes
/// identical shards — the referee does not need to be told the layout.
[[nodiscard]] inline std::vector<graph::Vertex> shard_vertices(
    graph::Vertex n, std::size_t players, std::size_t index) {
  const auto [lo, hi] = shard_range(n, players, index);
  std::vector<graph::Vertex> owned(hi - lo);
  for (std::size_t i = 0; i < owned.size(); ++i) {
    owned[i] = static_cast<graph::Vertex>(lo + i);
  }
  return owned;
}

}  // namespace ds::service
