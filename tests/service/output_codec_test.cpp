// Hostile kResult payloads.  A result frame's CRC only guards transit, so
// its payload bits are whatever the sender chose; the OutputCodec decodes
// must stay total on them: no allocation driven by a claimed count, and
// no endpoint handed to Graph::from_edges that it would index out of
// bounds.
#include "service/output_codec.h"

#include <gtest/gtest.h>

#include <vector>

namespace ds::service {
namespace {

using graph::Edge;
using graph::Graph;

/// The first `bits` bits of `s`.
util::BitString prefix(const util::BitString& s, std::size_t bits) {
  util::BitReader in(s);
  util::BitWriter out;
  for (std::size_t i = 0; i < bits; ++i) out.put_bit(in.get_bit());
  return util::BitString(std::move(out));
}

TEST(OutputCodecHostile, EdgeListCountIsClampedToTheBitsLeft) {
  // Claims 2^40 edges and carries two: reserving the claim would ask for
  // 8 TB.
  util::BitWriter w;
  w.put_gamma((std::uint64_t{1} << 40) + 1);
  OutputCodec<Edge>::encode({0, 1}, w);
  OutputCodec<Edge>::encode({2, 3}, w);
  const util::BitString bits(std::move(w));
  util::BitReader in(bits);
  const std::vector<Edge> edges = OutputCodec<std::vector<Edge>>::decode(in);
  EXPECT_EQ(edges, (std::vector<Edge>{{0, 1}, {2, 3}}));
  EXPECT_EQ(in.bits_remaining(), 0u);
}

TEST(OutputCodecHostile, GraphDropsOutOfRangeEndpointsAndSelfLoops) {
  // n = 4 with edge (7, 1) overflowed from_edges' degree array.
  util::BitWriter w;
  w.put_bits(4, 32);
  OutputCodec<std::vector<Edge>>::encode(
      {{7, 1}, {0, 1}, {2, 2}, {3, 0xffffffffu}, {3, 1}, {4, 0}}, w);
  const util::BitString bits(std::move(w));
  util::BitReader in(bits);
  const Graph g = OutputCodec<Graph>::decode(in);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.edges(), (std::vector<Edge>{{0, 1}, {1, 3}}));
}

TEST(OutputCodecHostile, TruncatedGraphDecodesTheEdgesItCarries) {
  const Graph honest = Graph::from_edges(
      6, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}});
  util::BitWriter w;
  OutputCodec<Graph>::encode(honest, w);
  const util::BitString full(std::move(w));
  const std::vector<Edge> honest_edges = honest.edges();
  // n (32 bits) and the gamma code of 6 + 1 (5 bits) stay whole; every
  // cut after them claims six edges and carries fewer.
  constexpr std::size_t kHeaderBits = 32 + 5;
  ASSERT_EQ(full.bit_count(), kHeaderBits + 64 * honest_edges.size());
  for (std::size_t cut = kHeaderBits; cut <= full.bit_count(); ++cut) {
    const util::BitString bits = prefix(full, cut);
    util::BitReader in(bits);
    const Graph g = OutputCodec<Graph>::decode(in);
    const std::size_t carried = (cut - kHeaderBits) / 64;
    EXPECT_EQ(g.num_vertices(), 6u) << "cut " << cut;
    EXPECT_EQ(g.edges(),
              std::vector<Edge>(honest_edges.begin(),
                                honest_edges.begin() +
                                    static_cast<std::ptrdiff_t>(carried)))
        << "cut " << cut;
  }
}

}  // namespace
}  // namespace ds::service
