// Golden pins for the AGM Boruvka referee at a scale where component
// grouping matters.  The engine-equivalence goldens run at n = 26, where
// no round merges large components and every count is +-1; the decodes
// below run rounds that merge components of hundreds to thousands of
// vertices, so a change to how the referee groups vertices, merges their
// samplers, orders its proposals, or computes a decode residue moves a
// digest here.
//
// The values were captured from the copying referee (one sampler copy
// per component root, members merged in vertex order, Fermat inverses
// and square-and-multiply fingerprints).  The in-place referee must
// reproduce every forest edge in the same order.  The stream's
// state_hash pins were captured from per-vertex sketch objects, before
// the state moved into one table; any layout must serialize the same
// words in the same order.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <span>
#include <vector>

#include "graph/connectivity.h"
#include "graph/generators.h"
#include "model/runner.h"
#include "protocols/spanning_forest.h"
#include "protocols/zoo.h"
#include "scenario/builtin.h"
#include "stream/dynamic_stream.h"
#include "streamio/generator_stream.h"
#include "util/rng.h"

namespace ds {
namespace {

using graph::Edge;
using graph::Vertex;

/// A decode's fingerprint: forest size, an order-sensitive digest of its
/// edges, and the component count.
struct Pin {
  std::size_t edges = 0;
  std::uint64_t digest = 0;
  std::uint32_t components = 0;

  bool operator==(const Pin&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Pin& p) {
  return os << "{" << p.edges << ", 0x" << std::hex << p.digest << std::dec
            << "ull, " << p.components << "}";
}

Pin pin_of(std::span<const Edge> forest, std::uint32_t components) {
  std::uint64_t h = util::mix64(0xB0C0u, forest.size());
  for (const Edge& e : forest) h = util::mix64(h, util::mix64(e.u, e.v));
  return {forest.size(), h, components};
}

// ------------------------------------------------ DynamicConnectivity

/// A deleting R-MAT stream on 2^12 vertices (15% of inserts re-deleted).
std::vector<stream::EdgeUpdate> rmat_stream() {
  streamio::GeneratorConfig config;
  config.family = streamio::Family::kRmat;
  config.n = Vertex{1} << 12;
  config.edges = 16384;
  config.delete_fraction = 0.15;
  config.seed = 0x5EED;
  streamio::GeneratorStream source(config);
  std::vector<stream::EdgeUpdate> all;
  std::vector<stream::EdgeUpdate> batch(4096);
  while (const std::size_t got = source.next_batch(batch)) {
    all.insert(all.end(), batch.begin(),
               batch.begin() + static_cast<std::ptrdiff_t>(got));
  }
  return all;
}

Pin query_pin(const stream::DynamicConnectivity& state) {
  const sketch::SpanningForestDecode d = state.query_forest();
  return pin_of(d.forest, d.components);
}

/// The stream's pins at 50% and 100%: each query's Pin and the state's
/// serialized-word digest, so a change to the layout or order of the
/// sketch words moves a value here even when every query still agrees.
void expect_stream_pins(unsigned rounds, const Pin& half,
                        std::uint64_t half_hash, const Pin& full,
                        std::uint64_t full_hash) {
  const std::vector<stream::EdgeUpdate> updates = rmat_stream();
  stream::DynamicConnectivity state(Vertex{1} << 12, /*seed=*/0xA6E, rounds);
  const std::size_t mid = updates.size() / 2;
  for (std::size_t i = 0; i < mid; ++i) state.apply(updates[i]);
  EXPECT_EQ(query_pin(state), half) << "rounds=" << rounds << " at 50%";
  EXPECT_EQ(state.state_hash(), half_hash) << "rounds=" << rounds << " at 50%";
  // A snapshot owns its state: the original absorbing the rest of the
  // stream must not move the copy.
  const stream::DynamicConnectivity snapshot = state;
  for (std::size_t i = mid; i < updates.size(); ++i) state.apply(updates[i]);
  EXPECT_EQ(query_pin(state), full) << "rounds=" << rounds << " at 100%";
  EXPECT_EQ(state.state_hash(), full_hash)
      << "rounds=" << rounds << " at 100%";
  // A query must leave the state able to answer the same again.
  EXPECT_EQ(query_pin(state), full) << "rounds=" << rounds << " repeated";
  EXPECT_EQ(query_pin(snapshot), half) << "rounds=" << rounds << " copy";
  EXPECT_EQ(snapshot.state_hash(), half_hash) << "rounds=" << rounds << " copy";
}

TEST(BoruvkaGolden, DeletingRmatStreamTwoRounds) {
  expect_stream_pins(2, {1889, 0x218e14461a75cb0bull, 2207},
                     0x9ef718a0b04ddde8ull,
                     {2159, 0x462530d13b472886ull, 1937},
                     0x3887d4b65592eda9ull);
}

TEST(BoruvkaGolden, DeletingRmatStreamDefaultRounds) {
  expect_stream_pins(0, {2124, 0xfa76b910473b44b1ull, 1972},
                     0x3b8fcca54cf8e299ull,
                     {2448, 0xc91b7b1513bf5e5full, 1648},
                     0x4f58d102725103bbull);
}

// ------------------------------------- AGM protocols on Yu's instance

TEST(BoruvkaGolden, AgmDecodesOnYuHardInstance) {
  const scenario::ConnectivityYuHardScenario yu(64, 32);  // n = 2048
  struct Case {
    unsigned rounds;
    std::uint64_t trial_seed;
    Pin want;
  };
  const Case cases[] = {
      {1, 11, {866, 0xba9cb4e95bff6f63ull, 1182}},
      {4, 11, {1001, 0xb92bd082a3e71a26ull, 1047}},
      {15, 11, {1001, 0xb92bd082a3e71a26ull, 1047}},
      {1, 12, {851, 0x54b45edeccc8fd8dull, 1197}},
      {4, 12, {979, 0xe3e53f617ec74d72ull, 1069}},
      {15, 12, {979, 0xe3e53f617ec74d72ull, 1069}},
  };
  for (const Case& c : cases) {
    const scenario::Instance inst = yu.sample(c.trial_seed);
    const model::PublicCoins coins(util::derive_seed(c.trial_seed, 0xC01));
    const auto forest = model::run_protocol(
        inst.g, protocols::AgmSpanningForest(c.rounds), coins);
    const auto components = model::run_protocol(
        inst.g, protocols::AgmConnectivity(c.rounds), coins);
    EXPECT_EQ(pin_of(forest.output, components.output), c.want)
        << "rounds=" << c.rounds << " trial_seed=" << c.trial_seed;
    // The forest and the count come from the same Boruvka run.
    EXPECT_EQ(forest.output.size() + components.output,
              std::size_t{inst.g.num_vertices()});
  }
}

// ------------------------------------------ k-connectivity certificate

TEST(BoruvkaGolden, KConnectivityCertificateOnGnp) {
  util::Rng rng(0x600);
  const graph::Graph g = graph::gnp(600, 0.01, rng);
  const model::PublicCoins coins(0xCE27);
  const auto run =
      model::run_protocol(g, protocols::KConnectivityCertificate(3), coins);
  const graph::Graph cert = graph::Graph::from_edges(600, run.output);
  EXPECT_EQ(pin_of(run.output, graph::connected_components(cert).count),
            (Pin{1660, 0xaadd446ff518ff73ull, 1}));
}

}  // namespace
}  // namespace ds
