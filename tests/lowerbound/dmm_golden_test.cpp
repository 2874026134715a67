// Golden pins for D_MM at the benchmark's size (m = 64: N = 317, r = 16,
// t = k = 64, n = 2333).  The golden sweeps pin sampling only through
// sweep outcomes at m = 8 and m = 16; these pin the sampled instance
// itself, field by field, through both entry points: the scenario's
// sample(trial_seed) and sample_dmm on a caller's Rng.
//
// The values were captured from the bit-per-entry EdgeBits and the
// sort-based Graph::from_edges.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <span>
#include <vector>

#include "lowerbound/dmm.h"
#include "rs/rs_graph.h"
#include "scenario/builtin.h"
#include "scenario/scenario.h"
#include "util/rng.h"

namespace ds::lowerbound {
namespace {

using graph::Edge;
using scenario::fnv_fold;
using scenario::kFnvOffset;

std::uint64_t fold_edges(std::uint64_t h, std::span<const Edge> edges) {
  h = fnv_fold(h, edges.size());
  for (const Edge& e : edges) {
    h = fnv_fold(h, (std::uint64_t{e.u} << 32) | e.v);
  }
  return h;
}

std::uint64_t matchings_digest(const std::vector<graph::Matching>& ms) {
  std::uint64_t h = fnv_fold(kFnvOffset, ms.size());
  for (const graph::Matching& m : ms) h = fold_edges(h, m);
  return h;
}

/// One sampled instance, field by field.
struct Pin {
  std::size_t num_edges = 0;
  std::uint64_t edges = 0;      // FNV of g.edges()
  std::uint64_t sigma = 0;      // FNV of sigma
  std::size_t j_star = 0;
  std::uint64_t full = 0;       // FNV of special_full
  std::uint64_t surviving = 0;  // FNV of special_surviving

  bool operator==(const Pin&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Pin& p) {
  return os << "{" << p.num_edges << std::hex << ", 0x" << p.edges
            << "ull, 0x" << p.sigma << "ull, " << std::dec << p.j_star
            << std::hex << ", 0x" << p.full << "ull, 0x" << p.surviving
            << "ull}" << std::dec;
}

Pin pin_of(const DmmInstance& inst) {
  Pin p;
  const std::vector<Edge> edges = inst.g.edges();
  p.num_edges = edges.size();
  p.edges = fold_edges(kFnvOffset, edges);
  p.sigma = fnv_fold(kFnvOffset, inst.sigma.size());
  for (const graph::Vertex v : inst.sigma) p.sigma = fnv_fold(p.sigma, v);
  p.j_star = inst.j_star;
  p.full = matchings_digest(inst.special_full);
  p.surviving = matchings_digest(inst.special_surviving);
  return p;
}

TEST(DmmGolden, ScenarioSampleAtBenchmarkSize) {
  const scenario::DmmMatchingScenario s(64);
  ASSERT_EQ(s.params().n, 2333u);
  const struct {
    std::uint64_t seed;
    Pin pin;
  } cases[] = {
      {1, {10974, 0x54f685552b9a70ceull, 0x9483e4c6b2711b48ull, 44,
           0x7e92b939078da693ull, 0x33fd9ed8716a0a5cull}},
      {2, {9802, 0x40f6355001dedb17ull, 0x8fc0c821fe11fbb0ull, 6,
           0x3a75e2d2fee87611ull, 0xf50494b7d268ad5bull}},
      {3, {10839, 0xe59790dd35fe8e78ull, 0x9b6027c8133b47bcull, 44,
           0x380c6d409112cbb5ull, 0x9e05b014c5a9cf62ull}},
  };
  for (const auto& c : cases) {
    const scenario::Instance inst = s.sample(c.seed);
    const auto& dmm = scenario::witness_as<DmmInstance>(inst);
    EXPECT_EQ(inst.g, dmm.g) << "seed " << c.seed;
    EXPECT_EQ(pin_of(dmm), c.pin) << "seed " << c.seed;
  }
}

TEST(DmmGolden, SampleDmmAtBenchmarkSize) {
  const rs::RsGraph base = rs::rs_graph(64);
  const struct {
    std::uint64_t seed;
    Pin pin;
  } cases[] = {
      {41, {10913, 0x968287c3d5c6da7dull, 0x903d1cf738b5495aull, 45,
            0xc4df231b203c17acull, 0x575f3994a8c5da65ull}},
      {42, {9489, 0x5962315c078a23ccull, 0x56052031376da7d0ull, 5,
            0x116ad3ec56436657ull, 0x790e114ed6835b80ull}},
      {43, {11742, 0xacdedef72b02f850ull, 0x79d357a3f189c75aull, 36,
            0xee575dbd70003257ull, 0xeed2d2305a35ef26ull}},
  };
  for (const auto& c : cases) {
    util::Rng rng(c.seed);
    EXPECT_EQ(pin_of(sample_dmm(base, base.t(), rng)), c.pin)
        << "seed " << c.seed;
  }
}

}  // namespace
}  // namespace ds::lowerbound
