#include "protocols/budgeted_two_round.h"

#include <vector>

#include "graph/matching.h"
#include "protocols/budgeted.h"

namespace ds::protocols {

using graph::Edge;
using graph::Graph;
using graph::Vertex;

namespace {

/// Budgeted random report over an explicit candidate list.
void report_sampled(const model::VertexView& view,
                    const std::vector<Vertex>& candidates,
                    std::size_t budget_bits, std::uint64_t round_tag,
                    util::BitWriter& out) {
  const unsigned width = util::bit_width_for(view.n);
  const std::size_t capacity =
      edges_fitting_budget(budget_bits, view.n, candidates.size());
  std::vector<std::uint32_t> reported;
  if (capacity >= candidates.size()) {
    reported.assign(candidates.begin(), candidates.end());
  } else if (capacity > 0) {
    util::Rng rng = view.coins->stream(model::coin_tag(
        model::CoinTag::kEdgeSample, util::mix64(view.id, round_tag)));
    for (std::uint64_t pick :
         rng.sample_without_replacement(candidates.size(), capacity)) {
      reported.push_back(candidates[pick]);
    }
  }
  out.put_u32_span(reported, width);
}

}  // namespace

void BudgetedTwoRoundMatching::encode_round(
    const model::VertexView& view, unsigned round,
    std::span<const util::BitString> broadcasts, util::BitWriter& out) const {
  if (round == 0) {
    const std::vector<Vertex> all(view.neighbors.begin(),
                                  view.neighbors.end());
    report_sampled(view, all, round0_bits_, 0xB0, out);
    return;
  }
  // Round 1: matched bitmap arrived; unmatched vertices report a budgeted
  // sample of their edges to unmatched neighbors.
  util::BitReader bitmap(broadcasts[0]);
  std::vector<bool> matched(view.n);
  for (Vertex v = 0; v < view.n; ++v) matched[v] = bitmap.get_bit();

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
  const std::vector<bool> matched = graph::matched_set(m1, n);
  util::BitWriter writer;
  for (Vertex v = 0; v < n; ++v) writer.put_bit(matched[v]);
  return util::BitString(writer);
}

model::MatchingOutput BudgetedTwoRoundMatching::decode_rounds(
    Vertex n, std::span<const std::vector<util::BitString>> all_rounds,
    std::span<const util::BitString> /*broadcasts*/,
    const model::PublicCoins& coins) const {
  model::MatchingOutput matching = round0_matching(n, all_rounds[0], coins);
  std::vector<bool> matched = graph::matched_set(matching, n);

  const unsigned width = util::bit_width_for(n);
  for (Vertex v = 0; v < n; ++v) {
    util::BitReader reader(all_rounds[1][v]);
    if (reader.bits_remaining() == 0) continue;
    for (std::uint32_t w : reader.get_u32_span(width)) {
      if (w >= n || w == v) continue;
      if (!matched[v] && !matched[w]) {
        matching.push_back(Edge{v, static_cast<Vertex>(w)}.normalized());
        matched[v] = matched[w] = true;
      }
    }
  }
  return matching;
}

}  // namespace ds::protocols
