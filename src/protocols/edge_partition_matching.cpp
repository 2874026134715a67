#include "protocols/edge_partition_matching.h"

#include <vector>

#include "graph/matching.h"
#include "util/rng.h"

namespace ds::protocols {

using graph::Edge;
using graph::Matching;
using graph::Vertex;

void EdgePartitionMatching::encode(const model::EdgePlayerView& view,
                                   util::BitWriter& out) const {
  // Local greedy matching over this player's edges, in a public-coin
  // random order (so adversarial edge orders don't bias it).
  util::Rng rng = view.coins->stream(
      model::coin_tag(model::CoinTag::kShuffle, 0x40 + view.player));
  std::vector<Edge> order(view.edges.begin(), view.edges.end());
  rng.shuffle(std::span<Edge>(order));
  std::vector<bool> used(view.n, false);
  std::vector<Edge> local;
  for (const Edge& e : order) {
    if (!used[e.u] && !used[e.v]) {
      used[e.u] = used[e.v] = true;
      local.push_back(e.normalized());
    }
  }
  // Report as many matched edges as fit: 2 ids each plus a gamma header.
  const unsigned width = util::bit_width_for(view.n);
  std::size_t count = local.size();
  auto bits_needed = [&](std::size_t c) {
    unsigned len = 0;
    for (std::size_t v = c + 1; v > 0; v >>= 1) ++len;
    return static_cast<std::size_t>(2 * (len - 1) + 1) + c * 2 * width;
  };
  while (count > 0 && bits_needed(count) > budget_bits_) --count;
  if (bits_needed(0) > budget_bits_) {
    return;  // not even the header fits: silence
  }
  out.put_gamma(count + 1);
  for (std::size_t i = 0; i < count; ++i) {
    out.put_bits(local[i].u, width);
    out.put_bits(local[i].v, width);
  }
}

Matching EdgePartitionMatching::decode(
    Vertex n, std::span<const util::BitString> sketches,
    const model::PublicCoins& /*coins*/) const {
  const unsigned width = util::bit_width_for(n);
  std::vector<bool> used(n, false);
  Matching result;
  for (const util::BitString& raw : sketches) {
    util::BitReader reader(raw);
    if (reader.bits_remaining() == 0) continue;
    const std::uint64_t count = reader.get_span_length(2 * width);
    for (std::uint64_t i = 0; i < count; ++i) {
      const Vertex u = static_cast<Vertex>(reader.get_bits(width));
      const Vertex v = static_cast<Vertex>(reader.get_bits(width));
      if (u >= n || v >= n || u == v) continue;
      if (!used[u] && !used[v]) {
        used[u] = used[v] = true;
        result.push_back(Edge{u, v}.normalized());
      }
    }
  }
  return result;
}

}  // namespace ds::protocols
