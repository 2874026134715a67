#include "protocols/sampling_zoo.h"

#include <cmath>
#include <vector>

#include "protocols/budgeted.h"

namespace ds::protocols {

using graph::Graph;
using graph::Vertex;

namespace {

constexpr std::uint64_t kKmvTag = 0xEC07;
constexpr std::uint64_t kSampleTag = 0x5A3D;

/// Shared subgraph sample: report the incident edges the shared hash
/// selects.
void encode_sampled_edges(const model::VertexView& view, double p,
                          util::BitWriter& out) {
  std::vector<Vertex> reported;
  for (Vertex w : view.neighbors) {
    const std::uint64_t id = graph::pair_id(view.n, view.id, w);
    if (SampledDensestSubgraph::sampled(*view.coins, id, p)) {
      reported.push_back(w);
    }
  }
  put_report(reported, view.n, out);
}

}  // namespace

bool SampledDensestSubgraph::sampled(const model::PublicCoins& coins,
                                     std::uint64_t edge_id, double p) {
  if (p >= 1.0) return true;
  if (p <= 0.0) return false;
  const util::KWiseHash hash =
      coins.hash(model::coin_tag(model::CoinTag::kEdgeSample,
                                 util::mix64(kSampleTag, 0)),
                 2);
  // A vertex's incident pair-ids are CONSECUTIVE integers, and a linear
  // pairwise hash maps an arithmetic progression to an arithmetic
  // progression — producing long sampled runs at one vertex.  Pre-mixing
  // with a fixed bijection scrambles that structure while preserving
  // pairwise independence over the hash draw.
  const std::uint64_t scrambled = util::mix64(edge_id, 0x5EED5EED);
  const double u = static_cast<double>(hash(scrambled)) /
                   static_cast<double>(util::kDefaultPrime);
  return u < p;
}

void EdgeCountEstimate::encode(const model::VertexView& view,
                               util::BitWriter& out) const {
  sketch::KmvSketch s = sketch::KmvSketch::make(*view.coins, kKmvTag, k_);
  for (Vertex w : view.neighbors) {
    s.add(graph::pair_id(view.n, view.id, w));
  }
  s.write(out);
}

double EdgeCountEstimate::decode(Vertex /*n*/,
                                 std::span<const util::BitString> sketches,
                                 const model::PublicCoins& coins) const {
  sketch::KmvSketch merged = sketch::KmvSketch::make(coins, kKmvTag, k_);
  for (const util::BitString& raw : sketches) {
    sketch::KmvSketch s = sketch::KmvSketch::make(coins, kKmvTag, k_);
    util::BitReader reader(raw);
    s.read(reader);
    merged.merge(s);
  }
  return merged.estimate();
}

void SampledDensestSubgraph::encode(const model::VertexView& view,
                                    util::BitWriter& out) const {
  encode_sampled_edges(view, sample_prob_, out);
}

graph::DensestResult SampledDensestSubgraph::decode(
    Vertex n, std::span<const util::BitString> sketches,
    const model::PublicCoins& /*coins*/) const {
  const Graph sample = decode_reported_graph(n, sketches);
  graph::DensestResult result = graph::densest_subgraph_peel(sample);
  result.density /= std::max(sample_prob_, 1e-12);  // unbias the estimate
  return result;
}

void SampledSubgraph::encode(const model::VertexView& view,
                             util::BitWriter& out) const {
  encode_sampled_edges(view, sample_prob_, out);
}

Graph SampledSubgraph::decode(Vertex n,
                              std::span<const util::BitString> sketches,
                              const model::PublicCoins& /*coins*/) const {
  return decode_reported_graph(n, sketches);
}

void SampledDegeneracy::encode(const model::VertexView& view,
                               util::BitWriter& out) const {
  encode_sampled_edges(view, sample_prob_, out);
}

double SampledDegeneracy::decode(
    Vertex n, std::span<const util::BitString> sketches,
    const model::PublicCoins& /*coins*/) const {
  const Graph sample = decode_reported_graph(n, sketches);
  return static_cast<double>(graph::degeneracy(sample)) /
         std::max(sample_prob_, 1e-12);
}

}  // namespace ds::protocols
