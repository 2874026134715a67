#include "protocols/spanning_forest.h"

namespace ds::protocols {

void AgmSpanningForest::encode(const model::VertexView& view,
                               util::BitWriter& out) const {
  sketch::AgmSketch::cached(*view.coins, view.n, rounds_)
      .encode(view.id, view.neighbors, out);
}

model::ForestOutput AgmSpanningForest::decode(
    graph::Vertex n, std::span<const util::BitString> sketches,
    const model::PublicCoins& coins) const {
  const sketch::AgmSketch& shape = sketch::AgmSketch::cached(coins, n, rounds_);
  std::vector<util::BitReader> readers(sketches.begin(), sketches.end());
  return sketch::agm_spanning_forest(shape, shape.read_table(readers)).forest;
}

}  // namespace ds::protocols
