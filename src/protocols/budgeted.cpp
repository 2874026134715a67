#include "protocols/budgeted.h"

#include <algorithm>
#include <vector>

#include "util/rng.h"

namespace ds::protocols {

using graph::Edge;
using graph::Graph;
using graph::Vertex;

std::size_t edges_fitting_budget(std::size_t budget_bits, Vertex n,
                                 std::size_t degree) {
  const unsigned width = util::bit_width_for(n);
  if (width == 0) return degree;
  // The gamma code for count+1 takes 2*floor(log2(count+1)) + 1 bits;
  // solve greedily by trying counts downward from the naive bound.
  std::size_t count = budget_bits / width;
  if (count > degree) count = degree;
  auto header_bits = [](std::size_t c) {
    unsigned len = 0;
    for (std::size_t v = c + 1; v > 0; v >>= 1) ++len;
    return static_cast<std::size_t>(2 * (len - 1) + 1);
  };
  while (count > 0 && header_bits(count) + count * width > budget_bits) {
    --count;
  }
  if (count == 0 && header_bits(0) > budget_bits) return 0;
  return count;
}

void encode_edge_report(const model::VertexView& view, std::size_t budget_bits,
                        util::BitWriter& out) {
  const unsigned width = util::bit_width_for(view.n);
  const std::size_t capacity =
      edges_fitting_budget(budget_bits, view.n, view.neighbors.size());

  if (capacity >= view.neighbors.size()) {
    out.put_u32_span(view.neighbors, width);
    return;
  }
  std::vector<std::uint32_t> reported;
  if (capacity > 0) {
    util::Rng rng = view.coins->stream(
        model::coin_tag(model::CoinTag::kEdgeSample, view.id));
    for (std::uint64_t pick :
         rng.sample_without_replacement(view.neighbors.size(), capacity)) {
      reported.push_back(view.neighbors[pick]);
    }
  }
  out.put_u32_span(reported, width);
}

Graph decode_reported_graph(Vertex n,
                            std::span<const util::BitString> sketches) {
  const unsigned width = util::bit_width_for(n);
  // One-sided runs hand in fewer sketches than vertices; parse what is
  // there.
  const Vertex senders =
      static_cast<Vertex>(std::min<std::size_t>(n, sketches.size()));
  // Every reported id takes `width` bits, so the reports' bits bound the
  // edge count: one list, read into in place, sender by sender.
  std::size_t report_bits = 0;
  for (Vertex v = 0; v < senders; ++v) report_bits += sketches[v].bit_count();
  std::vector<Edge> edges;
  edges.reserve(width == 0 ? 0 : report_bits / width);
  for (Vertex v = 0; v < senders; ++v) {
    util::BitReader reader(sketches[v]);
    if (reader.bits_remaining() == 0) continue;
    const std::uint64_t count = reader.get_span_length(width);
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto w = static_cast<Vertex>(reader.get_bits(width));
      if (w < n && w != v) edges.push_back({v, w});
    }
  }
  return Graph::from_edges(n, edges);
}

}  // namespace ds::protocols
