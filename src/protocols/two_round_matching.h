// Two-round adaptive maximal matching, in the style of the filtering
// technique of Lattanzi-Moseley-Suri-Vassilvitskii (SPAA'11) cited by the
// paper's Section 1.1 remark: with one extra round, maximal matching has
// O(sqrt n)-size (adaptive) sketches.
//
//   round 0: every vertex reports min(deg, c0) random incident edges.
//   referee: greedy maximal matching M1 on the sampled graph; broadcasts
//            the matched-vertex bitmap (n bits downlink).
//   round 1: every *unmatched* vertex reports its edges to unmatched
//            neighbors, up to a cap.
//   referee: extends M1 greedily with the residual reports.
//
// The filtering guarantee is that after matching on a sample, the residual
// graph on unmatched vertices is sparse w.h.p., so a ~sqrt(n) cap in both
// rounds suffices; the bench (E8) measures realized per-player bits.
#pragma once

#include "model/protocol.h"

namespace ds::protocols {

/// The round-1 referee step of both two-round matchings: extend
/// `matching` greedily, sender by sender in id order, with every reported
/// edge whose endpoints it leaves unmatched.
void extend_with_reports(graph::Vertex n,
                         std::span<const util::BitString> reports,
                         model::MatchingOutput& matching);

class TwoRoundMatching final
    : public model::Protocol<model::MatchingOutput> {
 public:
  /// round0_samples: edges reported per vertex in round 0;
  /// round1_cap: max residual edges reported per vertex in round 1.
  TwoRoundMatching(std::size_t round0_samples, std::size_t round1_cap)
      : round0_samples_(round0_samples), round1_cap_(round1_cap) {}

  [[nodiscard]] unsigned num_rounds() const override { return 2; }

  void encode_round(const model::VertexView& view, unsigned round,
                    std::span<const util::BitString> broadcasts,
                    util::BitWriter& out) const override;

  [[nodiscard]] util::BitString make_broadcast(
      unsigned round, graph::Vertex n,
      std::span<const std::vector<util::BitString>> rounds_so_far,
      const model::PublicCoins& coins) const override;

  [[nodiscard]] model::MatchingOutput decode_rounds(
      graph::Vertex n,
      std::span<const std::vector<util::BitString>> all_rounds,
      std::span<const util::BitString> broadcasts,
      const model::PublicCoins& coins) const override;

  [[nodiscard]] std::string name() const override {
    return "two-round-matching";
  }

 private:
  /// The deterministic-given-coins round-0 matching both referee steps
  /// recompute.
  [[nodiscard]] model::MatchingOutput round0_matching(
      graph::Vertex n, std::span<const util::BitString> round0,
      const model::PublicCoins& coins) const;

  std::size_t round0_samples_;
  std::size_t round1_cap_;
};

}  // namespace ds::protocols
