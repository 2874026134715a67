// Two-round adaptive MIS, in the style of the vertex-sampling
// sparsification of Ghaffari-Gouleakis-Konrad-Mitrovic-Rubinfeld
// (PODC'18), the second O(sqrt n) two-round citation in Section 1.1.
//
//   round 0: a public-coin mark (every party recomputes it) selects each
//            vertex with probability p; marked vertices report their edges
//            to *marked* neighbors (expected ~p * deg each).
//   referee: greedy MIS I1 on the induced marked graph; broadcasts the I1
//            bitmap.
//   round 1: a vertex that is not in I1 and sees no I1 neighbor
//            ("undominated") reports its edges to non-I1 neighbors,
//            capped.  Undominated vertices induce a sparse graph w.h.p. —
//            high-degree vertices get dominated in round 0.
//   referee: greedy MIS I2 on the graph induced on undominated vertices;
//            outputs I1 union I2.
//
// Maximality: every vertex is in I1, dominated by I1, in I2, or dominated
// by I2 within the fully-known undominated subgraph.  Failures only arise
// from the round-1 cap, which the bench measures.
#pragma once

#include "model/protocol.h"

namespace ds::protocols {

class TwoRoundMis final
    : public model::Protocol<model::VertexSetOutput> {
 public:
  TwoRoundMis(double mark_probability, std::size_t round1_cap)
      : mark_probability_(mark_probability), round1_cap_(round1_cap) {}

  [[nodiscard]] unsigned num_rounds() const override { return 2; }

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

  [[nodiscard]] std::string name() const override { return "two-round-mis"; }

  /// The public-coin mark — identical for every party.
  [[nodiscard]] static bool is_marked(const model::PublicCoins& coins,
                                      graph::Vertex v, double p);

 private:
  [[nodiscard]] model::VertexSetOutput round0_mis(
      graph::Vertex n, std::span<const util::BitString> round0,
      const model::PublicCoins& coins) const;

  double mark_probability_;
  std::size_t round1_cap_;
};

}  // namespace ds::protocols
