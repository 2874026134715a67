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
  if (round == 0) {
    // Sample round0_samples_ incident edges.
    put_sampled_report(view, view.neighbors, round0_samples_, view.id, out);
    return;
  }

  // Round 1: matched-vertex bitmap arrived; unmatched vertices report
  // their edges to unmatched neighbors, capped.
  const std::vector<bool> matched = read_vertex_bitmap(broadcasts[0], view.n);
  std::vector<Vertex> residual;
  if (!matched[view.id]) {
    for (Vertex w : view.neighbors) {
      if (!matched[w]) {
        residual.push_back(w);
        if (residual.size() >= round1_cap_) break;  // cap: rest is dropped
      }
    }
  }
  put_report(residual, view.n, out);
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
  return vertex_bitmap(graph::matched_set(m1, n));
}

void extend_with_reports(Vertex n, std::span<const util::BitString> reports,
                         model::MatchingOutput& matching) {
  std::vector<bool> matched = graph::matched_set(matching, n);
  // Extend greedily with residual reports (deterministic order).
  for (Vertex v = 0; v < n; ++v) {
    util::BitReader reader(reports[v]);
    read_report(reader, v, n, [&](Vertex w) {
      if (!matched[v] && !matched[w]) {
        matching.push_back(Edge{v, w}.normalized());
        matched[v] = matched[w] = true;
      }
    });
  }
}

model::MatchingOutput TwoRoundMatching::decode_rounds(
    Vertex n, std::span<const std::vector<util::BitString>> all_rounds,
    std::span<const util::BitString> /*broadcasts*/,
    const model::PublicCoins& coins) const {
  model::MatchingOutput matching = round0_matching(n, all_rounds[0], coins);
  extend_with_reports(n, all_rounds[1], matching);
  return matching;
}

}  // namespace ds::protocols
