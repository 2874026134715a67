#include "protocols/spanning_forest.h"

namespace ds::protocols {

void AgmSpanningForest::encode(const model::VertexView& view,
                               util::BitWriter& out) const {
  sketch::AgmVertexSketch s =
      sketch::AgmVertexSketch::make_cached(*view.coins, view.n, rounds_);
  s.add_vertex_edges(view.id, view.neighbors);
  s.write(out);
}

model::ForestOutput AgmSpanningForest::decode(
    graph::Vertex n, std::span<const util::BitString> sketches,
    const model::PublicCoins& coins) const {
  std::vector<sketch::AgmVertexSketch> decoded;
  decoded.reserve(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    sketch::AgmVertexSketch s =
        sketch::AgmVertexSketch::make_cached(coins, n, rounds_);
    util::BitReader reader(sketches[v]);
    s.read(reader);
    decoded.push_back(std::move(s));
  }
  return sketch::agm_spanning_forest(n, decoded).forest;
}

}  // namespace ds::protocols
