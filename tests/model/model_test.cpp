#include "model/runner.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.h"

namespace ds::model {
namespace {

using graph::Graph;
using graph::Vertex;

/// A protocol that just reports its degree; the referee sums them.
/// Exercises the runner plumbing and exact bit accounting.
class DegreeSum final : public SketchingProtocol<std::uint64_t> {
 public:
  void encode(const VertexView& view, util::BitWriter& out) const override {
    out.put_gamma(view.degree() + 1);
  }
  std::uint64_t decode(Vertex n, std::span<const util::BitString> sketches,
                       const PublicCoins&) const override {
    std::uint64_t total = 0;
    for (Vertex v = 0; v < n; ++v) {
      util::BitReader r(sketches[v]);
      total += r.get_gamma() - 1;
    }
    return total;
  }
  std::string name() const override { return "degree-sum"; }
};

TEST(Runner, DegreeSumIsTwiceEdges) {
  util::Rng rng(1);
  const Graph g = graph::gnp(50, 0.1, rng);
  const PublicCoins coins(7);
  const auto result = run_protocol(g, DegreeSum{}, coins);
  EXPECT_EQ(result.output, 2 * g.num_edges());
  EXPECT_EQ(result.comm.num_players, 50u);
}

TEST(Runner, BitAccountingExact) {
  // A 3-vertex path: degrees 1, 2, 1 -> gamma(2)=3 bits, gamma(3)=3 bits.
  const Graph g = graph::path(3);
  const PublicCoins coins(8);
  const auto result = run_protocol(g, DegreeSum{}, coins);
  EXPECT_EQ(result.comm.max_bits, 3u);
  EXPECT_EQ(result.comm.total_bits, 9u);
  EXPECT_NEAR(result.comm.avg_bits(), 3.0, 1e-12);
}

/// View-integrity protocol: asserts the harness hands each player exactly
/// its own sorted neighborhood.
class ViewCheck final : public SketchingProtocol<int> {
 public:
  explicit ViewCheck(const Graph& g) : g_(&g) {}
  void encode(const VertexView& view, util::BitWriter& out) const override {
    EXPECT_EQ(view.n, g_->num_vertices());
    EXPECT_LT(view.id, view.n);
    const auto expected = g_->neighbors(view.id);
    ASSERT_EQ(view.neighbors.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(view.neighbors[i], expected[i]);
    }
    EXPECT_NE(view.coins, nullptr);
    out.put_bit(true);
  }
  int decode(Vertex, std::span<const util::BitString>,
             const PublicCoins&) const override {
    return 0;
  }
  std::string name() const override { return "view-check"; }

 private:
  const Graph* g_;
};

TEST(Runner, ViewsMatchGraph) {
  util::Rng rng(2);
  const Graph g = graph::gnp(25, 0.2, rng);
  const PublicCoins coins(9);
  (void)run_protocol(g, ViewCheck{g}, coins);
}

TEST(PublicCoins, SharedStreamsAgreeAcrossParties) {
  const PublicCoins a(42), b(42);
  util::Rng sa = a.stream(coin_tag(CoinTag::kEdgeSample, 3));
  util::Rng sb = b.stream(coin_tag(CoinTag::kEdgeSample, 3));
  for (int i = 0; i < 20; ++i) EXPECT_EQ(sa.next(), sb.next());
}

TEST(PublicCoins, DifferentTagsDiffer) {
  const PublicCoins coins(43);
  util::Rng s1 = coins.stream(coin_tag(CoinTag::kEdgeSample, 1));
  util::Rng s2 = coins.stream(coin_tag(CoinTag::kPalette, 1));
  EXPECT_NE(s1.next(), s2.next());
}

TEST(PublicCoins, SharedHashFunctionsAgree) {
  const PublicCoins a(44), b(44);
  const util::KWiseHash ha = a.hash(99, 2);
  const util::KWiseHash hb = b.hash(99, 2);
  for (std::uint64_t x = 0; x < 50; ++x) EXPECT_EQ(ha(x), hb(x));
}

/// Two-round echo protocol: round 0 sends degree; referee broadcasts the
/// max; round 1 each vertex sends 1 iff its degree equals the max.
class MaxDegreeLocator final : public Protocol<std::vector<Vertex>> {
 public:
  unsigned num_rounds() const override { return 2; }

  void encode_round(const VertexView& view, unsigned round,
                    std::span<const util::BitString> broadcasts,
                    util::BitWriter& out) const override {
    if (round == 0) {
      out.put_gamma(view.degree() + 1);
      return;
    }
    util::BitReader r(broadcasts[0]);
    const std::uint64_t max_deg = r.get_gamma() - 1;
    out.put_bit(view.degree() == max_deg);
  }

  util::BitString make_broadcast(
      unsigned, Vertex n,
      std::span<const std::vector<util::BitString>> rounds,
      const PublicCoins&) const override {
    std::uint64_t max_deg = 0;
    for (Vertex v = 0; v < n; ++v) {
      util::BitReader r(rounds[0][v]);
      max_deg = std::max(max_deg, r.get_gamma() - 1);
    }
    util::BitWriter w;
    w.put_gamma(max_deg + 1);
    return util::BitString(w);
  }

  std::vector<Vertex> decode_rounds(
      Vertex n, std::span<const std::vector<util::BitString>> all,
      std::span<const util::BitString>, const PublicCoins&) const override {
    std::vector<Vertex> result;
    for (Vertex v = 0; v < n; ++v) {
      util::BitReader r(all[1][v]);
      if (r.get_bit()) result.push_back(v);
    }
    return result;
  }

  std::string name() const override { return "max-degree-locator"; }
};

TEST(Adaptive, TwoRoundMaxDegree) {
  // Star graph: only the center has max degree.
  std::vector<graph::Edge> edges;
  for (Vertex v = 1; v < 10; ++v) edges.push_back({0, v});
  const Graph g = Graph::from_edges(10, edges);
  const PublicCoins coins(10);
  const auto result = run_protocol(g, MaxDegreeLocator{}, coins);
  ASSERT_EQ(result.output.size(), 1u);
  EXPECT_EQ(result.output[0], 0u);
  EXPECT_EQ(result.by_round.size(), 2u);
  // Round 1 costs exactly 1 bit per player.
  EXPECT_EQ(result.by_round[1].max_bits, 1u);
  EXPECT_EQ(result.by_round[1].total_bits, 10u);
  EXPECT_GT(result.broadcast_bits, 0u);
  // Per-player totals: round0 gamma + 1 bit.
  EXPECT_EQ(result.comm.num_players, 10u);
  EXPECT_EQ(result.comm.max_bits,
            result.by_round[0].max_bits + result.by_round[1].max_bits);
}

TEST(CommStats, MergeAndRecord) {
  CommStats a;
  a.record(10);
  a.record(20);
  CommStats b;
  b.record(30);
  a.merge(b);
  EXPECT_EQ(a.max_bits, 30u);
  EXPECT_EQ(a.total_bits, 60u);
  EXPECT_EQ(a.num_players, 3u);
}

}  // namespace
}  // namespace ds::model
