#include "protocols/budgeted_two_round.h"

#include <vector>

#include "graph/matching.h"
#include "protocols/budgeted.h"
#include "protocols/two_round_matching.h"

namespace ds::protocols {

using graph::Graph;
using graph::Vertex;

namespace {

/// Budgeted random report over an explicit candidate list.
void report_sampled(const model::VertexView& view,
                    std::span<const Vertex> candidates,
                    std::size_t budget_bits, std::uint64_t round_tag,
                    util::BitWriter& out) {
  const std::size_t capacity =
      edges_fitting_budget(budget_bits, view.n, candidates.size());
  put_sampled_report(view, candidates, capacity,
                     util::mix64(view.id, round_tag), out);
}

}  // namespace

void BudgetedTwoRoundMatching::encode_round(
    const model::VertexView& view, unsigned round,
    std::span<const util::BitString> broadcasts, util::BitWriter& out) const {
  if (round == 0) {
    report_sampled(view, view.neighbors, round0_bits_, 0xB0, out);
    return;
  }
  // Round 1: matched bitmap arrived; unmatched vertices report a budgeted
  // sample of their edges to unmatched neighbors.
  const std::vector<bool> matched = read_vertex_bitmap(broadcasts[0], view.n);
  std::vector<Vertex> residual;
  if (!matched[view.id]) {
    for (Vertex w : view.neighbors) {
      if (!matched[w]) residual.push_back(w);
    }
  }
  report_sampled(view, residual, round1_bits_, 0xB1, out);
}

model::MatchingOutput BudgetedTwoRoundMatching::round0_matching(
    Vertex n, std::span<const util::BitString> round0,
    const model::PublicCoins& coins) const {
  const Graph sampled = decode_reported_graph(n, round0);
  util::Rng rng = coins.stream(model::coin_tag(model::CoinTag::kShuffle, 30));
  return graph::greedy_matching_random(sampled, rng);
}

util::BitString BudgetedTwoRoundMatching::make_broadcast(
    unsigned /*round*/, Vertex n,
    std::span<const std::vector<util::BitString>> rounds_so_far,
    const model::PublicCoins& coins) const {
  const model::MatchingOutput m1 = round0_matching(n, rounds_so_far[0], coins);
  return vertex_bitmap(graph::matched_set(m1, n));
}

model::MatchingOutput BudgetedTwoRoundMatching::decode_rounds(
    Vertex n, std::span<const std::vector<util::BitString>> all_rounds,
    std::span<const util::BitString> /*broadcasts*/,
    const model::PublicCoins& coins) const {
  model::MatchingOutput matching = round0_matching(n, all_rounds[0], coins);
  extend_with_reports(n, all_rounds[1], matching);
  return matching;
}

}  // namespace ds::protocols
