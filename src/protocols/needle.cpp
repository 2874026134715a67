#include "protocols/needle.h"

#include <vector>

#include "protocols/budgeted.h"

namespace ds::protocols {

using graph::Edge;
using graph::Graph;
using graph::Vertex;

void NeedleTwoSided::encode(const model::VertexView& view,
                            util::BitWriter& out) const {
  // Only right vertices of degree exactly 1 speak; everyone else sends
  // the empty message (0 bits — silence is free in this model).
  if (view.id >= left_ && view.degree() == 1) {
    out.put_bits(view.neighbors[0], util::bit_width_for(view.n));
  }
}

Edge NeedleTwoSided::decode(Vertex n,
                            std::span<const util::BitString> sketches,
                            const model::PublicCoins& /*coins*/) const {
  const unsigned width = util::bit_width_for(n);
  for (Vertex r = left_; r < n && r < sketches.size(); ++r) {
    if (sketches[r].bit_count() == 0) continue;
    util::BitReader reader(sketches[r]);
    const Vertex l = static_cast<Vertex>(reader.get_bits(width));
    if (l < left_) return Edge{l, r};
  }
  return Edge{0, 0};  // failure sentinel
}

void NeedleOneSided::encode(const model::VertexView& view,
                            util::BitWriter& out) const {
  // Only left vertices exist as players in the one-sided runner, but the
  // protocol also runs unmodified in the two-sided runner (right players
  // then send empty reports and contribute nothing).
  if (view.id < left_) {
    encode_edge_report(view, budget_bits_, out);
  } else {
    put_report({}, view.n, out);
  }
}

Edge NeedleOneSided::decode(Vertex n,
                            std::span<const util::BitString> sketches,
                            const model::PublicCoins& /*coins*/) const {
  const Graph reported = decode_reported_graph(n, sketches);
  // A needle candidate: right vertex with reported degree exactly 1.
  // Under-reporting creates false candidates; answer only when the
  // candidate is unique (otherwise the referee is guessing).
  Edge candidate{0, 0};
  std::size_t count = 0;
  for (Vertex r = left_; r < n; ++r) {
    if (reported.degree(r) == 1) {
      candidate = Edge{reported.neighbors(r)[0], r};
      ++count;
    }
  }
  return count == 1 ? candidate : Edge{0, 0};
}

}  // namespace ds::protocols
