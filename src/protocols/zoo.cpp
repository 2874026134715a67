#include "protocols/zoo.h"

#include <algorithm>
#include <cassert>
#include <set>

namespace ds::protocols {

using graph::Edge;
using graph::Vertex;

namespace {

constexpr std::uint64_t kPeelTag = 0x9EE1;
constexpr std::uint64_t kWeightClassTag = 0x3357;

}  // namespace

void AgmConnectivity::encode(const model::VertexView& view,
                             util::BitWriter& out) const {
  sketch::AgmSketch::cached(*view.coins, view.n, rounds_)
      .encode(view.id, view.neighbors, out);
}

std::uint32_t AgmConnectivity::decode(
    Vertex n, std::span<const util::BitString> sketches,
    const model::PublicCoins& coins) const {
  const sketch::AgmSketch& shape = sketch::AgmSketch::cached(coins, n, rounds_);
  std::vector<util::BitReader> readers(sketches.begin(), sketches.end());
  return sketch::agm_spanning_forest(shape, shape.read_table(readers))
      .components;
}

void KConnectivityCertificate::encode(const model::VertexView& view,
                                      util::BitWriter& out) const {
  // k independent sketch groups of the same incidence vector.
  for (std::uint32_t group = 0; group < k_; ++group) {
    sketch::AgmSketch::cached(*view.coins, view.n, 0,
                              util::mix64(kPeelTag, group))
        .encode(view.id, view.neighbors, out);
  }
}

std::vector<Edge> KConnectivityCertificate::decode(
    Vertex n, std::span<const util::BitString> sketches,
    const model::PublicCoins& coins) const {
  std::vector<util::BitReader> readers(sketches.begin(), sketches.end());
  std::vector<Edge> certificate;  // accumulated peeled forests
  for (std::uint32_t group = 0; group < k_; ++group) {
    const sketch::AgmSketch& shape =
        sketch::AgmSketch::cached(coins, n, 0, util::mix64(kPeelTag, group));
    std::vector<std::uint64_t> table = shape.read_table(readers);
    // Peel every previously recovered edge out of this group: by
    // linearity the group now sketches G minus the earlier forests.
    for (const Edge& e : certificate) {
      shape.add_single_edge(shape.row(table, e.u), e.u, e.v, -1);
      shape.add_single_edge(shape.row(table, e.v), e.v, e.u, -1);
    }
    const sketch::SpanningForestDecode forest =
        sketch::agm_spanning_forest(shape, table);
    certificate.insert(certificate.end(), forest.forest.begin(),
                       forest.forest.end());
  }
  std::sort(certificate.begin(), certificate.end());
  certificate.erase(std::unique(certificate.begin(), certificate.end()),
                    certificate.end());
  return certificate;
}

void MstWeight::encode(const model::VertexView& view,
                       util::BitWriter& out) const {
  assert(view.neighbor_weights.size() == view.neighbors.size() &&
         "MstWeight needs the weighted runner");
  // One connectivity sketch per weight class i = 1..W over the subgraph
  // of incident edges with weight <= i.
  std::vector<Vertex> kept;
  kept.reserve(view.neighbors.size());
  for (std::uint32_t klass = 1; klass <= max_weight_; ++klass) {
    kept.clear();
    for (std::size_t i = 0; i < view.neighbors.size(); ++i) {
      if (view.neighbor_weights[i] <= klass) kept.push_back(view.neighbors[i]);
    }
    sketch::AgmSketch::cached(*view.coins, view.n, 0,
                              util::mix64(kWeightClassTag, klass))
        .encode(view.id, kept, out);
  }
}

std::uint64_t MstWeight::decode(Vertex n,
                                std::span<const util::BitString> sketches,
                                const model::PublicCoins& coins) const {
  std::vector<util::BitReader> readers(sketches.begin(), sketches.end());
  // c_i = components of the weight-<= i subgraph; c_0 = n.
  std::vector<std::uint32_t> components(max_weight_ + 1);
  components[0] = n;
  for (std::uint32_t klass = 1; klass <= max_weight_; ++klass) {
    const sketch::AgmSketch& shape = sketch::AgmSketch::cached(
        coins, n, 0, util::mix64(kWeightClassTag, klass));
    components[klass] =
        sketch::agm_spanning_forest(shape, shape.read_table(readers))
            .components;
  }
  // w(MSF) = sum_{i=0}^{W-1} (c_i - c_W).
  std::uint64_t weight = 0;
  for (std::uint32_t i = 0; i < max_weight_; ++i) {
    weight += components[i] - components[max_weight_];
  }
  return weight;
}

}  // namespace ds::protocols
