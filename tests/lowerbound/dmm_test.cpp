#include "lowerbound/dmm.h"

#include <gtest/gtest.h>

#include <bit>
#include <numeric>
#include <set>

#include "rs/rs_graph.h"

namespace ds::lowerbound {
namespace {

using graph::Edge;
using graph::Vertex;

TEST(EdgeBits, SetGetPattern) {
  EdgeBits bits(2, 3, 4);
  EXPECT_EQ(bits.total_bits(), 24u);
  bits.set(1, 2, 3, true);
  bits.set(1, 2, 0, true);
  EXPECT_TRUE(bits.get(1, 2, 3));
  EXPECT_FALSE(bits.get(0, 2, 3));
  EXPECT_EQ(bits.pattern(1, 2), 0b1001u);
  EXPECT_EQ(bits.pattern(0, 0), 0u);
}

TEST(EdgeBits, FromMaskOrdering) {
  // Mask bit index = (i*t + j)*r + e.
  const EdgeBits bits = EdgeBits::from_mask(2, 2, 2, 0b10000001);
  EXPECT_TRUE(bits.get(0, 0, 0));
  EXPECT_TRUE(bits.get(1, 1, 1));
  EXPECT_FALSE(bits.get(0, 1, 0));
}

TEST(EdgeBits, RandomIsFair) {
  util::Rng rng(1);
  std::size_t ones = 0;
  constexpr int kReps = 200;
  for (int rep = 0; rep < kReps; ++rep) {
    const EdgeBits bits = EdgeBits::random(2, 3, 4, rng);
    for (std::uint64_t i = 0; i < 2; ++i)
      for (std::uint64_t j = 0; j < 3; ++j)
        for (std::uint64_t e = 0; e < 4; ++e) ones += bits.get(i, j, e);
  }
  const double rate = static_cast<double>(ones) / (kReps * 24.0);
  EXPECT_NEAR(rate, 0.5, 0.03);
}

TEST(EdgeBits, SetGetEveryIndexAcrossWordBoundary) {
  // k*t*r = 105 bits in two words: the pattern of (1, 4) is bits 63-69,
  // straddling the boundary, and that of (2, 4) ends on the last bit.
  constexpr std::uint64_t kK = 3, kT = 5, kR = 7;
  EdgeBits bits(kK, kT, kR);
  ASSERT_EQ(bits.total_bits(), 105u);
  for (std::uint64_t i = 0; i < kK; ++i) {
    for (std::uint64_t j = 0; j < kT; ++j) {
      for (std::uint64_t e = 0; e < kR; ++e) {
        bits.set(i, j, e, true);
        EXPECT_EQ(bits.count(), 1u);
        for (std::uint64_t i2 = 0; i2 < kK; ++i2) {
          for (std::uint64_t j2 = 0; j2 < kT; ++j2) {
            const std::uint64_t want =
                i2 == i && j2 == j ? std::uint64_t{1} << e : 0;
            EXPECT_EQ(bits.pattern(i2, j2), want)
                << "set (" << i << "," << j << "," << e << ") read (" << i2
                << "," << j2 << ")";
            for (std::uint64_t e2 = 0; e2 < kR; ++e2) {
              EXPECT_EQ(bits.get(i2, j2, e2), i2 == i && j2 == j && e2 == e);
            }
          }
        }
        bits.set(i, j, e, false);
        EXPECT_EQ(bits.count(), 0u);
      }
    }
  }
}

TEST(EdgeBits, PatternStraddlingAWordMatchesGet) {
  util::Rng rng(7);
  const EdgeBits bits = EdgeBits::random(3, 5, 7, rng);
  std::uint64_t ones = 0;
  for (std::uint64_t i = 0; i < 3; ++i) {
    for (std::uint64_t j = 0; j < 5; ++j) {
      std::uint64_t want = 0;
      for (std::uint64_t e = 0; e < 7; ++e) {
        if (bits.get(i, j, e)) want |= std::uint64_t{1} << e;
      }
      EXPECT_EQ(bits.pattern(i, j), want) << "(" << i << "," << j << ")";
      ones += static_cast<std::uint64_t>(std::popcount(want));
    }
  }
  EXPECT_EQ(bits.count(), ones);
}

TEST(EdgeBits, FromMaskFillsAWholeWord) {
  // k*t*r = 64: the mask is exactly one word, top bit included.
  const std::uint64_t mask = 0x80F0'0000'0A00'0001ull;
  const EdgeBits bits = EdgeBits::from_mask(2, 4, 8, mask);
  ASSERT_EQ(bits.total_bits(), 64u);
  for (std::uint64_t idx = 0; idx < 64; ++idx) {
    EXPECT_EQ(bits.get(idx / 32, (idx / 8) % 4, idx % 8),
              ((mask >> idx) & 1) != 0)
        << idx;
  }
  EXPECT_EQ(bits.pattern(1, 3), 0x80u);
  EXPECT_EQ(bits.pattern(0, 0), 0x01u);
  EXPECT_EQ(bits.count(), static_cast<std::uint64_t>(std::popcount(mask)));
  // r = 64: one pattern is the whole mask.
  EXPECT_EQ(EdgeBits::from_mask(1, 1, 64, mask).pattern(0, 0), mask);
}

TEST(DmmParameters, PaperFormulas) {
  const rs::RsGraph base = rs::book_rs(2, 3);
  const DmmParameters p = dmm_parameters(base, 3);
  EXPECT_EQ(p.big_n, 2u + 6u);
  EXPECT_EQ(p.r, 2u);
  EXPECT_EQ(p.t, 3u);
  EXPECT_EQ(p.k, 3u);
  EXPECT_EQ(p.n, 8u - 4u + 2u * 2u * 3u);  // N - 2r + 2rk = 16
  EXPECT_EQ(p.num_public(), 4u);
  EXPECT_EQ(p.num_unique(), 12u);
  EXPECT_EQ(p.claim31_threshold(), 6u / 4u);
}

class DmmStructure : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    base_ = rs::rs_graph(8);
    util::Rng rng(GetParam());
    inst_ = sample_dmm(base_, base_.t(), rng);
  }
  rs::RsGraph base_;
  DmmInstance inst_;
};

TEST_P(DmmStructure, VertexClassesPartition) {
  const DmmParameters& p = inst_.params;
  std::size_t publics = 0;
  for (Vertex v = 0; v < p.n; ++v) publics += inst_.is_public[v];
  EXPECT_EQ(publics, p.num_public());

  // public_final and all unique_final labels together hit every vertex
  // exactly once.
  std::set<Vertex> seen(inst_.public_final.begin(), inst_.public_final.end());
  EXPECT_EQ(seen.size(), p.num_public());
  for (const auto& copy : inst_.unique_final) {
    for (Vertex v : copy) {
      EXPECT_TRUE(seen.insert(v).second) << "label reused";
    }
  }
  EXPECT_EQ(seen.size(), p.n);
}

TEST_P(DmmStructure, SpecialMatchingsAreOnUniqueVertices) {
  for (const auto& m : inst_.special_full) {
    EXPECT_EQ(m.size(), inst_.params.r);
    for (const Edge& e : m) {
      EXPECT_FALSE(inst_.is_public[e.u]);
      EXPECT_FALSE(inst_.is_public[e.v]);
    }
  }
}

TEST_P(DmmStructure, SurvivingSpecialEdgesExistInG) {
  for (const auto& m : inst_.special_surviving) {
    for (const Edge& e : m) EXPECT_TRUE(inst_.g.has_edge(e.u, e.v));
  }
}

TEST_P(DmmStructure, DroppedSpecialEdgesAbsentFromG) {
  // The special matchings are induced and on unique (per-copy) vertices,
  // so a dropped special edge cannot reappear via another copy.
  for (std::size_t i = 0; i < inst_.special_full.size(); ++i) {
    for (std::size_t e = 0; e < inst_.special_full[i].size(); ++e) {
      if (!inst_.bits.get(i, inst_.j_star, e)) {
        const Edge& edge = inst_.special_full[i][e];
        EXPECT_FALSE(inst_.g.has_edge(edge.u, edge.v));
      }
    }
  }
}

TEST_P(DmmStructure, EdgeCountMatchesSurvivalBits) {
  // Every surviving base edge appears; public-public edges may coincide
  // across copies, so the union is at most the sum but at least the
  // per-copy max. Here we check the exact count via re-expansion.
  std::set<std::pair<Vertex, Vertex>> expected;
  const DmmParameters& p = inst_.params;
  const std::vector<Vertex> v_star = base_.matching_vertices(inst_.j_star);
  std::vector<std::uint32_t> star_pos(p.big_n, 0xffffffffu);
  for (std::size_t l = 0; l < v_star.size(); ++l) star_pos[v_star[l]] = static_cast<std::uint32_t>(l);
  std::vector<std::uint32_t> public_pos(p.big_n, 0xffffffffu);
  std::uint32_t next = 0;
  for (Vertex b = 0; b < p.big_n; ++b) {
    if (star_pos[b] == 0xffffffffu) public_pos[b] = next++;
  }
  for (std::uint64_t i = 0; i < p.k; ++i) {
    for (std::uint64_t j = 0; j < p.t; ++j) {
      for (std::uint64_t e = 0; e < p.r; ++e) {
        if (!inst_.bits.get(i, j, e)) continue;
        const Edge& be = base_.matchings[j][e];
        auto map = [&](Vertex b) {
          return star_pos[b] != 0xffffffffu
                     ? inst_.unique_final[i][star_pos[b]]
                     : inst_.public_final[public_pos[b]];
        };
        const Edge fe = Edge{map(be.u), map(be.v)}.normalized();
        expected.insert({fe.u, fe.v});
      }
    }
  }
  EXPECT_EQ(inst_.g.num_edges(), expected.size());
}

TEST_P(DmmStructure, PublicVerticesSharedAcrossCopies) {
  // A public vertex's neighborhood can contain unique vertices from
  // multiple different copies — that is the whole point of sharing.
  const DmmParameters& p = inst_.params;
  std::size_t public_with_multi_copy_neighbors = 0;
  for (Vertex v = 0; v < p.n; ++v) {
    if (!inst_.is_public[v]) continue;
    std::set<std::uint64_t> copies;
    for (Vertex w : inst_.g.neighbors(v)) {
      if (inst_.is_public[w]) continue;
      for (std::uint64_t i = 0; i < p.k; ++i) {
        for (Vertex u : inst_.unique_final[i]) {
          if (u == w) copies.insert(i);
        }
      }
    }
    if (copies.size() >= 2) ++public_with_multi_copy_neighbors;
  }
  EXPECT_GT(public_with_multi_copy_neighbors, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DmmStructure, ::testing::Values(11, 22, 33));

TEST(Dmm, DeterministicBuildReproducible) {
  const rs::RsGraph base = rs::book_rs(2, 2);
  const DmmParameters p = dmm_parameters(base, 2);
  std::vector<Vertex> sigma(p.n);
  std::iota(sigma.begin(), sigma.end(), 0u);
  const EdgeBits bits = EdgeBits::from_mask(2, 2, 2, 0xAB);
  const DmmInstance a = build_dmm(base, 2, 1, bits, sigma);
  const DmmInstance b = build_dmm(base, 2, 1, bits, sigma);
  EXPECT_EQ(a.g, b.g);
  EXPECT_EQ(a.special_full, b.special_full);
}

TEST(Dmm, CountUniqueUnique) {
  const rs::RsGraph base = rs::book_rs(1, 2);
  util::Rng rng(5);
  const DmmInstance inst = sample_dmm(base, 2, rng);
  // All surviving special edges are unique-unique by construction.
  const graph::Matching all = inst.all_surviving_special();
  EXPECT_EQ(count_unique_unique(inst, all), all.size());
}

}  // namespace
}  // namespace ds::lowerbound
