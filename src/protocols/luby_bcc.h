// Luby's MIS as a multi-round broadcast-congested-clique protocol.
//
// The distributed sketching model is the ONE-round broadcast congested
// clique; this protocol completes the rounds-vs-bits picture the paper
// frames (Theorems 1-2: one round needs sqrt(n) bits; §1.1 remark: two
// rounds need ~sqrt(n); classic BCC folklore: O(log n) rounds need only
// O(1) bits each):
//
//   phase p (two rounds):
//     round A: every vertex sends 1 bit — "I joined in this phase": it
//              joins iff it is active and its public-coin priority
//              priority(v, p) beats every ACTIVE neighbor's (ties by id).
//              Priorities are public-coin, so no priority is ever sent.
//     referee: broadcasts the joined bitmap.
//     round B: every vertex sends 1 bit — "I am still active" (not
//              joined, no joined neighbor).  The referee broadcasts the
//              active bitmap, which is what lets neighbors evaluate each
//              other's activity next phase (a vertex cannot see its
//              neighbor's neighborhood).
//
// Total per-player uplink: 2 bits x O(log n) phases.  The referee's
// output is the union of joined bitmaps.
#pragma once

#include "model/protocol.h"

namespace ds::protocols {

class LubyBroadcastMis final
    : public model::Protocol<model::VertexSetOutput> {
 public:
  /// Use make_luby_bcc(n) unless you want an explicit phase count.
  explicit LubyBroadcastMis(unsigned phases) : phases_(phases) {}

  [[nodiscard]] unsigned num_rounds() const override { return 2 * phases_; }

  void encode_round(const model::VertexView& view, unsigned round,
                    std::span<const util::BitString> broadcasts,
                    util::BitWriter& out) const override;

  [[nodiscard]] util::BitString make_broadcast(
      unsigned round, graph::Vertex n,
      std::span<const std::vector<util::BitString>> rounds_so_far,
      const model::PublicCoins& coins) const override;

  [[nodiscard]] model::VertexSetOutput decode_rounds(
      graph::Vertex n,
      std::span<const std::vector<util::BitString>> all_rounds,
      std::span<const util::BitString> broadcasts,
      const model::PublicCoins& coins) const override;

  [[nodiscard]] std::string name() const override { return "luby-bcc-mis"; }

  /// Recommended phase count for graphs on n vertices.
  [[nodiscard]] static unsigned default_phases(graph::Vertex n);

  /// Public-coin phase priority of vertex v (identical for all parties).
  [[nodiscard]] static std::uint64_t priority(const model::PublicCoins& coins,
                                              graph::Vertex v,
                                              unsigned phase);

 private:
  unsigned phases_;
};

/// A copy of the protocol with phases resolved for a concrete n — use
/// this to construct (the runner asks num_rounds() before seeing n).
[[nodiscard]] LubyBroadcastMis make_luby_bcc(graph::Vertex n);

}  // namespace ds::protocols
