// Budgeted TWO-round matching: the bridge between Theorem 1 (one round,
// sqrt(n) wall) and the Section 1.1 remark (unbudgeted two rounds solve
// it with ~sqrt(n) bits).  Both rounds are budget-capped so the harness
// can sweep the budget exactly as in E3 and compare thresholds:
//
//   round 0: every vertex reports a budgeted random sample of its edges;
//   referee: greedy matching M1 on the union, broadcasts the matched set;
//   round 1: unmatched vertices report a budgeted sample of their edges
//            to unmatched neighbors;
//   referee: greedily extends M1.
//
// On D_MM adaptivity helps: after round 0 most public vertices are
// matched, so round 1's budget concentrates on exactly the unique-unique
// edges the one-round protocol had to pay for blindly.
#pragma once

#include "model/protocol.h"

namespace ds::protocols {

class BudgetedTwoRoundMatching final
    : public model::Protocol<model::MatchingOutput> {
 public:
  BudgetedTwoRoundMatching(std::size_t round0_bits, std::size_t round1_bits)
      : round0_bits_(round0_bits), round1_bits_(round1_bits) {}

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
    return "budgeted-two-round-matching";
  }

 private:
  [[nodiscard]] model::MatchingOutput round0_matching(
      graph::Vertex n, std::span<const util::BitString> round0,
      const model::PublicCoins& coins) const;

  std::size_t round0_bits_;
  std::size_t round1_bits_;
};

}  // namespace ds::protocols
