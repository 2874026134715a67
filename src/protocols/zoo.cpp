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

std::vector<sketch::AgmVertexSketch> read_group(
    const model::PublicCoins& coins, Vertex n, std::uint64_t tag,
    std::span<const util::BitString> sketches,
    std::vector<util::BitReader>& readers) {
  std::vector<sketch::AgmVertexSketch> group;
  group.reserve(n);
  for (Vertex v = 0; v < n; ++v) {
    sketch::AgmVertexSketch s =
        sketch::AgmVertexSketch::make_cached(coins, n, 0, tag);
    s.read(readers[v]);
    group.push_back(std::move(s));
  }
  (void)sketches;
  return group;
}

}  // namespace

void AgmConnectivity::encode(const model::VertexView& view,
                             util::BitWriter& out) const {
  sketch::AgmVertexSketch s =
      sketch::AgmVertexSketch::make_cached(*view.coins, view.n, rounds_);
  s.add_vertex_edges(view.id, view.neighbors);
  s.write(out);
}

std::uint32_t AgmConnectivity::decode(
    Vertex n, std::span<const util::BitString> sketches,
    const model::PublicCoins& coins) const {
  std::vector<sketch::AgmVertexSketch> decoded;
  decoded.reserve(n);
  for (Vertex v = 0; v < n; ++v) {
    sketch::AgmVertexSketch s =
        sketch::AgmVertexSketch::make_cached(coins, n, rounds_);
    util::BitReader reader(sketches[v]);
    s.read(reader);
    decoded.push_back(std::move(s));
  }
  return sketch::agm_spanning_forest(n, decoded).components;
}

void KConnectivityCertificate::encode(const model::VertexView& view,
                                      util::BitWriter& out) const {
  // k independent sketch groups of the same incidence vector.
  for (std::uint32_t group = 0; group < k_; ++group) {
    sketch::AgmVertexSketch s = sketch::AgmVertexSketch::make_cached(
        *view.coins, view.n, 0, util::mix64(kPeelTag, group));
    s.add_vertex_edges(view.id, view.neighbors);
    s.write(out);
  }
}

std::vector<Edge> KConnectivityCertificate::decode(
    Vertex n, std::span<const util::BitString> sketches,
    const model::PublicCoins& coins) const {
  std::vector<util::BitReader> readers;
  readers.reserve(n);
  for (Vertex v = 0; v < n; ++v) readers.emplace_back(sketches[v]);

  std::vector<Edge> certificate;  // accumulated peeled forests
  for (std::uint32_t group = 0; group < k_; ++group) {
    std::vector<sketch::AgmVertexSketch> sketches_g = read_group(
        coins, n, util::mix64(kPeelTag, group), sketches, readers);
    // Peel every previously recovered edge out of this group: by
    // linearity the group now sketches G minus the earlier forests.
    for (const Edge& e : certificate) {
      sketches_g[e.u].add_single_edge(e.u, e.v, -1);
      sketches_g[e.v].add_single_edge(e.v, e.u, -1);
    }
    const sketch::SpanningForestDecode forest =
        sketch::agm_spanning_forest(n, sketches_g);
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
    sketch::AgmVertexSketch s = sketch::AgmVertexSketch::make_cached(
        *view.coins, view.n, 0, util::mix64(kWeightClassTag, klass));
    kept.clear();
    for (std::size_t i = 0; i < view.neighbors.size(); ++i) {
      if (view.neighbor_weights[i] <= klass) kept.push_back(view.neighbors[i]);
    }
    s.add_vertex_edges(view.id, kept);
    s.write(out);
  }
}

std::uint64_t MstWeight::decode(Vertex n,
                                std::span<const util::BitString> sketches,
                                const model::PublicCoins& coins) const {
  std::vector<util::BitReader> readers;
  readers.reserve(n);
  for (Vertex v = 0; v < n; ++v) readers.emplace_back(sketches[v]);

  // c_i = components of the weight-<= i subgraph; c_0 = n.
  std::vector<std::uint32_t> components(max_weight_ + 1);
  components[0] = n;
  for (std::uint32_t klass = 1; klass <= max_weight_; ++klass) {
    std::vector<sketch::AgmVertexSketch> group = read_group(
        coins, n, util::mix64(kWeightClassTag, klass), sketches, readers);
    components[klass] =
        sketch::agm_spanning_forest(n, group).components;
  }
  // w(MSF) = sum_{i=0}^{W-1} (c_i - c_W).
  std::uint64_t weight = 0;
  for (std::uint32_t i = 0; i < max_weight_; ++i) {
    weight += components[i] - components[max_weight_];
  }
  return weight;
}

}  // namespace ds::protocols
