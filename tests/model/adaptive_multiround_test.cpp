// Exercises the runner on protocols beyond two rounds and assorted edge
// cases that no earlier suite touches directly.
#include <gtest/gtest.h>

#include <numeric>

#include "graph/generators.h"
#include "model/runner.h"

namespace ds::model {
namespace {

using graph::Graph;
using graph::Vertex;

/// R-round "ping-pong sum": in each round every vertex sends one gamma-
/// coded number; the referee broadcasts the running total; the final
/// output is the grand total.  Checks round sequencing, broadcast
/// visibility, and per-round accounting over >2 rounds.
class PingPongSum final : public Protocol<std::uint64_t> {
 public:
  explicit PingPongSum(unsigned rounds) : rounds_(rounds) {}
  unsigned num_rounds() const override { return rounds_; }

  void encode_round(const VertexView& view, unsigned round,
                    std::span<const util::BitString> broadcasts,
                    util::BitWriter& out) const override {
    // Every player must have seen exactly `round` broadcasts.
    EXPECT_EQ(broadcasts.size(), round);
    std::uint64_t carry = 0;
    if (round > 0) {
      util::BitReader reader(broadcasts[round - 1]);
      carry = reader.get_gamma() - 1;
    }
    // Send id + round + (carry % 7) so later rounds depend on broadcasts.
    out.put_gamma(view.id + round + carry % 7 + 1);
  }

  util::BitString make_broadcast(
      unsigned round, Vertex n,
      std::span<const std::vector<util::BitString>> rounds_so_far,
      const PublicCoins&) const override {
    std::uint64_t total = 0;
    for (Vertex v = 0; v < n; ++v) {
      util::BitReader reader(rounds_so_far[round][v]);
      total += reader.get_gamma() - 1;
    }
    util::BitWriter writer;
    writer.put_gamma(total + 1);
    return util::BitString(writer);
  }

  std::uint64_t decode_rounds(
      Vertex n, std::span<const std::vector<util::BitString>> all,
      std::span<const util::BitString> broadcasts,
      const PublicCoins&) const override {
    EXPECT_EQ(all.size(), rounds_);
    EXPECT_EQ(broadcasts.size(), rounds_ - 1);
    std::uint64_t total = 0;
    for (const auto& round : all) {
      for (Vertex v = 0; v < n; ++v) {
        util::BitReader reader(round[v]);
        total += reader.get_gamma() - 1;
      }
    }
    return total;
  }

  std::string name() const override { return "ping-pong-sum"; }

 private:
  unsigned rounds_;
};

TEST(AdaptiveMultiRound, FiveRoundsSequenceCorrectly) {
  const Graph g = graph::path(12);
  const PublicCoins coins(1);
  const PingPongSum protocol(5);
  const auto run = run_protocol(g, protocol, coins);
  EXPECT_EQ(run.by_round.size(), 5u);
  EXPECT_GT(run.broadcast_bits, 0u);

  // Verify against a direct recomputation.
  std::uint64_t expected = 0;
  std::uint64_t carry = 0;
  for (unsigned round = 0; round < 5; ++round) {
    std::uint64_t round_total = 0;
    for (Vertex v = 0; v < 12; ++v) {
      round_total += v + round + carry % 7;
    }
    expected += round_total;
    carry = round_total;
  }
  EXPECT_EQ(run.output, expected);
}

TEST(AdaptiveMultiRound, PerPlayerTotalsAreSummedAcrossRounds) {
  const Graph g = graph::cycle(8);
  const PublicCoins coins(2);
  const PingPongSum protocol(3);
  const auto run = run_protocol(g, protocol, coins);
  std::size_t per_round_total = 0;
  for (const auto& round : run.by_round) per_round_total += round.total_bits;
  EXPECT_EQ(run.comm.total_bits, per_round_total);
  EXPECT_EQ(run.comm.num_players, 8u);
}

TEST(AdaptiveMultiRound, SingleRoundDegeneratesToSimultaneous) {
  const Graph g = graph::path(5);
  const PublicCoins coins(3);
  const PingPongSum protocol(1);
  const auto run = run_protocol(g, protocol, coins);
  EXPECT_EQ(run.broadcast_bits, 0u);  // no broadcast after the last round
  EXPECT_EQ(run.by_round.size(), 1u);
  EXPECT_EQ(run.output, 0u + 1 + 2 + 3 + 4);
}

}  // namespace
}  // namespace ds::model
