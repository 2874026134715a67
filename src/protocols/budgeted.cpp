#include "protocols/budgeted.h"

#include <algorithm>
#include <utility>
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

void put_report(std::span<const Vertex> ids, Vertex n, util::BitWriter& out) {
  out.put_u32_span(ids, util::bit_width_for(n));
}

void put_sampled_report(const model::VertexView& view,
                        std::span<const Vertex> candidates, std::size_t cap,
                        std::uint64_t key, util::BitWriter& out) {
  if (cap >= candidates.size()) {
    put_report(candidates, view.n, out);
    return;
  }
  std::vector<Vertex> reported;
  if (cap > 0) {
    util::Rng rng = view.coins->stream(
        model::coin_tag(model::CoinTag::kEdgeSample, key));
    for (std::uint64_t pick :
         rng.sample_without_replacement(candidates.size(), cap)) {
      reported.push_back(candidates[pick]);
    }
  }
  put_report(reported, view.n, out);
}

void encode_edge_report(const model::VertexView& view, std::size_t budget_bits,
                        util::BitWriter& out) {
  const std::size_t capacity =
      edges_fitting_budget(budget_bits, view.n, view.neighbors.size());
  put_sampled_report(view, view.neighbors, capacity, view.id, out);
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
    read_report(reader, v, n, [&](Vertex w) { edges.push_back({v, w}); });
  }
  return Graph::from_edges(n, edges);
}

util::BitString vertex_bitmap(const std::vector<bool>& bits) {
  util::BitWriter writer;
  for (const bool bit : bits) writer.put_bit(bit);
  return util::BitString(std::move(writer));
}

std::vector<bool> read_vertex_bitmap(const util::BitString& bitmap, Vertex n) {
  util::BitReader reader(bitmap);
  std::vector<bool> bits(n);
  for (Vertex v = 0; v < n && reader.bits_remaining() > 0; ++v) {
    bits[v] = reader.get_bit();
  }
  return bits;
}

}  // namespace ds::protocols
