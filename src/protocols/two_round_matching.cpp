#include "protocols/two_round_matching.h"

#include <vector>

#include "graph/matching.h"
#include "protocols/budgeted.h"

namespace ds::protocols {

using graph::Edge;
using graph::Graph;
using graph::Vertex;

void TwoRoundMatching::encode_round(const model::VertexView& view,
                                    unsigned round,
                                    std::span<const util::BitString> broadcasts,
                                    util::BitWriter& out) const {
  const unsigned width = util::bit_width_for(view.n);
  if (round == 0) {
    // Sample round0_samples_ incident edges.
    std::vector<std::uint32_t> reported;
    if (view.neighbors.size() <= round0_samples_) {
      reported.assign(view.neighbors.begin(), view.neighbors.end());
    } else {
      util::Rng rng = view.coins->stream(
          model::coin_tag(model::CoinTag::kEdgeSample, view.id));
      for (std::uint64_t pick : rng.sample_without_replacement(
               view.neighbors.size(), round0_samples_)) {
        reported.push_back(view.neighbors[pick]);
      }
    }
    out.put_u32_span(reported, width);
    return;
  }

  // Round 1: matched-vertex bitmap arrived; unmatched vertices report
  // their edges to unmatched neighbors, capped.
  util::BitReader bitmap(broadcasts[0]);
  std::vector<bool> matched(view.n);
  for (Vertex v = 0; v < view.n; ++v) matched[v] = bitmap.get_bit();

  std::vector<std::uint32_t> residual;
  if (!matched[view.id]) {
    for (Vertex w : view.neighbors) {
      if (!matched[w]) {
        residual.push_back(w);
        if (residual.size() >= round1_cap_) break;  // cap: rest is dropped
      }
    }
  }
  out.put_u32_span(residual, width);
}

model::MatchingOutput TwoRoundMatching::round0_matching(
    Vertex n, std::span<const util::BitString> round0,
    const model::PublicCoins& coins) const {
  const Graph sampled = decode_reported_graph(n, round0);
  util::Rng rng = coins.stream(model::coin_tag(model::CoinTag::kShuffle, 10));
  return graph::greedy_matching_random(sampled, rng);
}

util::BitString TwoRoundMatching::make_broadcast(
    unsigned /*round*/, Vertex n,
    std::span<const std::vector<util::BitString>> rounds_so_far,
    const model::PublicCoins& coins) const {
  const model::MatchingOutput m1 = round0_matching(n, rounds_so_far[0], coins);
  const std::vector<bool> matched = graph::matched_set(m1, n);
  util::BitWriter writer;
  for (Vertex v = 0; v < n; ++v) writer.put_bit(matched[v]);
  return util::BitString(writer);
}

model::MatchingOutput TwoRoundMatching::decode_rounds(
    Vertex n, std::span<const std::vector<util::BitString>> all_rounds,
    std::span<const util::BitString> /*broadcasts*/,
    const model::PublicCoins& coins) const {
  model::MatchingOutput matching = round0_matching(n, all_rounds[0], coins);
  std::vector<bool> matched = graph::matched_set(matching, n);

  // Extend greedily with residual reports (deterministic order).
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
