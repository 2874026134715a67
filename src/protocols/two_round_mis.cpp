#include "protocols/two_round_mis.h"

#include <algorithm>
#include <vector>

#include "graph/independent_set.h"
#include "protocols/budgeted.h"

namespace ds::protocols {

using graph::Graph;
using graph::Vertex;

bool TwoRoundMis::is_marked(const model::PublicCoins& coins, Vertex v,
                            double p) {
  util::Rng rng = coins.stream(model::coin_tag(model::CoinTag::kMark, v));
  return rng.next_bernoulli(p);
}

void TwoRoundMis::encode_round(const model::VertexView& view, unsigned round,
                               std::span<const util::BitString> broadcasts,
                               util::BitWriter& out) const {
  if (round == 0) {
    std::vector<Vertex> reported;
    if (is_marked(*view.coins, view.id, mark_probability_)) {
      for (Vertex w : view.neighbors) {
        if (is_marked(*view.coins, w, mark_probability_)) reported.push_back(w);
      }
    }
    put_report(reported, view.n, out);
    return;
  }

  // Round 1: I1 bitmap arrived. The message is one flag bit ("I am
  // undominated") followed, when set, by the vertex's edges to non-I1
  // neighbors. The flag disambiguates a dominated vertex from an
  // undominated one with no residual neighbors — the latter must join the
  // final MIS, the former must not.
  const std::vector<bool> in_i1 = read_vertex_bitmap(broadcasts[0], view.n);

  bool undominated = !in_i1[view.id];
  if (undominated) {
    for (Vertex w : view.neighbors) {
      if (in_i1[w]) {
        undominated = false;
        break;
      }
    }
  }

  out.put_bit(undominated);
  if (undominated) {
    std::vector<Vertex> residual;
    for (Vertex w : view.neighbors) {
      if (!in_i1[w]) {
        residual.push_back(w);
        if (residual.size() >= round1_cap_) break;
      }
    }
    put_report(residual, view.n, out);
  }
}

model::VertexSetOutput TwoRoundMis::round0_mis(
    Vertex n, std::span<const util::BitString> round0,
    const model::PublicCoins& coins) const {
  const Graph marked_graph = decode_reported_graph(n, round0);
  // Greedy only over marked vertices (unmarked ones sent nothing but must
  // not sneak into I1 as isolated vertices).
  std::vector<Vertex> order;
  for (Vertex v = 0; v < n; ++v) {
    if (is_marked(coins, v, mark_probability_)) order.push_back(v);
  }
  util::Rng rng = coins.stream(model::coin_tag(model::CoinTag::kShuffle, 11));
  rng.shuffle(std::span<Vertex>(order));
  return graph::greedy_mis(marked_graph, order);
}

util::BitString TwoRoundMis::make_broadcast(
    unsigned /*round*/, Vertex n,
    std::span<const std::vector<util::BitString>> rounds_so_far,
    const model::PublicCoins& coins) const {
  const model::VertexSetOutput i1 = round0_mis(n, rounds_so_far[0], coins);
  std::vector<bool> member(n, false);
  for (Vertex v : i1) member[v] = true;
  return vertex_bitmap(member);
}

model::VertexSetOutput TwoRoundMis::decode_rounds(
    Vertex n, std::span<const std::vector<util::BitString>> all_rounds,
    std::span<const util::BitString> /*broadcasts*/,
    const model::PublicCoins& coins) const {
  const model::VertexSetOutput i1 = round0_mis(n, all_rounds[0], coins);
  std::vector<bool> in_i1(n, false);
  for (Vertex v : i1) in_i1[v] = true;

  // Round-1 senders flagged themselves undominated; their reports give
  // the full induced residual graph on undominated vertices (cap
  // permitting — only the cap can cause an error here).
  std::vector<bool> undominated(n, false);
  std::vector<graph::Edge> residual_edges;
  for (Vertex v = 0; v < n; ++v) {
    util::BitReader reader(all_rounds[1][v]);
    if (reader.bits_remaining() == 0) continue;
    if (!reader.get_bit()) continue;  // dominated or in I1
    undominated[v] = true;
    read_report(reader, v, n,
                [&](Vertex w) { residual_edges.push_back({v, w}); });
  }

  const Graph residual = Graph::from_edges(n, residual_edges);
  std::vector<Vertex> order;
  for (Vertex v = 0; v < n; ++v) {
    if (undominated[v]) order.push_back(v);
  }
  util::Rng rng = coins.stream(model::coin_tag(model::CoinTag::kShuffle, 12));
  rng.shuffle(std::span<Vertex>(order));
  // Greedy over undominated candidates only.
  std::vector<bool> blocked(n, false);
  model::VertexSetOutput result = i1;
  for (Vertex v : order) {
    if (blocked[v]) continue;
    result.push_back(v);
    blocked[v] = true;
    for (Vertex w : residual.neighbors(v)) blocked[w] = true;
  }
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace ds::protocols
