// Failure injection: referees must handle truncated, empty, and garbage
// sketches gracefully (return *something*, never crash or read out of
// bounds).  The paper's error model permits arbitrary wrong outputs; the
// implementation must therefore be total.
#include <gtest/gtest.h>

#include "graph/generators.h"
#include "model/runner.h"
#include "protocols/bridge_finding.h"
#include "protocols/budgeted.h"
#include "protocols/budgeted_two_round.h"
#include "protocols/coloring.h"
#include "protocols/needle.h"
#include "protocols/sampled_matching.h"
#include "protocols/sampled_mis.h"
#include "protocols/spanning_forest.h"
#include "protocols/trivial.h"
#include "protocols/two_round_matching.h"
#include "protocols/two_round_mis.h"

namespace ds::model {
namespace {

using graph::Graph;
using graph::Vertex;

/// Truncate every sketch to at most `bits` bits.
std::vector<util::BitString> truncate_all(
    std::span<const util::BitString> sketches, std::size_t bits) {
  std::vector<util::BitString> out;
  for (const util::BitString& s : sketches) {
    util::BitWriter w;
    util::BitReader r(s);
    std::size_t take = std::min(bits, s.bit_count());
    while (take >= 64) {
      w.put_bits(r.get_bits(64), 64);
      take -= 64;
    }
    if (take > 0) w.put_bits(r.get_bits(static_cast<unsigned>(take)),
                             static_cast<unsigned>(take));
    out.emplace_back(w);
  }
  return out;
}

/// Replace every sketch with `bits` random bits.
std::vector<util::BitString> garbage_all(std::size_t count, std::size_t bits,
                                         util::Rng& rng) {
  std::vector<util::BitString> out;
  for (std::size_t i = 0; i < count; ++i) {
    util::BitWriter w;
    for (std::size_t b = 0; b < bits; b += 64) {
      w.put_bits(rng.next(), static_cast<unsigned>(std::min<std::size_t>(
                                 64, bits - b)));
    }
    out.emplace_back(w);
  }
  return out;
}

/// An honest run's transcript, whose rounds a test then damages.
template <typename Output>
engine::EngineResult<Output> honest_run(const Graph& g,
                                        const Protocol<Output>& protocol,
                                        const PublicCoins& coins) {
  auto source = engine::make_local_source(
      g.num_vertices(), engine::graph_view_fn(g, coins), protocol);
  engine::PlainInstrumentation instr;
  return engine::run_rounds(g.num_vertices(), protocol, coins, source, instr);
}

/// An edge output in range: endpoints below n, and no self-pair unless it
/// is the {0, 0} failure sentinel.
void expect_edge_in_range(const graph::Edge& e, Vertex n) {
  EXPECT_LT(e.u, n);
  EXPECT_LT(e.v, n);
  if (e.u != 0 || e.v != 0) {
    EXPECT_NE(e.u, e.v);
  }
}

class Robustness : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Robustness, BudgetedMatchingSurvivesTruncation) {
  util::Rng rng(1);
  const Graph g = graph::gnp(30, 0.2, rng);
  const PublicCoins coins(2);
  const protocols::BudgetedMatching protocol(128);
  CommStats comm;
  const auto sketches = collect_sketches(g, protocol, coins, comm);
  const auto truncated = truncate_all(sketches, GetParam());
  const auto output = protocol.decode(30, truncated, coins);
  // Whatever came out, scoring it must be well-defined.
  (void)graph::is_matching(output, 30);
}

TEST_P(Robustness, BudgetedMisSurvivesGarbage) {
  util::Rng rng(3);
  const PublicCoins coins(4);
  const protocols::BudgetedMis protocol(64);
  const auto garbage = garbage_all(25, GetParam(), rng);
  const auto output = protocol.decode(25, garbage, coins);
  for (Vertex v : output) EXPECT_LT(v, 25u);
}

TEST_P(Robustness, ReportedGraphParserBoundsChecks) {
  util::Rng rng(5);
  const auto garbage = garbage_all(20, GetParam(), rng);
  const Graph decoded = protocols::decode_reported_graph(20, garbage);
  EXPECT_EQ(decoded.num_vertices(), 20u);
  for (const graph::Edge& e : decoded.edges()) {
    EXPECT_LT(e.u, 20u);
    EXPECT_LT(e.v, 20u);
    EXPECT_NE(e.u, e.v);
  }
}

TEST_P(Robustness, TwoRoundMatchingsSurviveDamagedRoundOneReports) {
  util::Rng rng(11);
  const Vertex n = 30;
  const Graph g = graph::gnp(n, 0.2, rng);
  const PublicCoins coins(12);
  const protocols::TwoRoundMatching plain(4, 8);
  const protocols::BudgetedTwoRoundMatching budgeted(48, 48);
  const Protocol<MatchingOutput>* const matchings[] = {&plain, &budgeted};
  for (const Protocol<MatchingOutput>* protocol : matchings) {
    SCOPED_TRACE(protocol->name());
    const auto run = honest_run(g, *protocol, coins);
    std::vector<std::vector<util::BitString>> rounds = run.all_rounds;
    for (const bool garbage : {false, true}) {
      rounds[1] = garbage ? garbage_all(n, GetParam(), rng)
                          : truncate_all(run.all_rounds[1], GetParam());
      const MatchingOutput output =
          protocol->decode_rounds(n, rounds, run.broadcasts, coins);
      for (const graph::Edge& e : output) {
        EXPECT_LT(e.u, n);
        EXPECT_LT(e.v, n);
        EXPECT_NE(e.u, e.v);
      }
      EXPECT_TRUE(graph::is_matching(output, n));
    }
  }
}

TEST_P(Robustness, TwoRoundMisSurvivesDamagedRoundOneReports) {
  util::Rng rng(13);
  const Vertex n = 30;
  const Graph g = graph::gnp(n, 0.2, rng);
  const PublicCoins coins(14);
  const protocols::TwoRoundMis protocol(0.3, 8);
  const auto run = honest_run(g, protocol, coins);
  std::vector<std::vector<util::BitString>> rounds = run.all_rounds;
  for (const bool garbage : {false, true}) {
    rounds[1] = garbage ? garbage_all(n, GetParam(), rng)
                        : truncate_all(run.all_rounds[1], GetParam());
    const VertexSetOutput output =
        protocol.decode_rounds(n, rounds, run.broadcasts, coins);
    for (Vertex v : output) EXPECT_LT(v, n);
  }
}

TEST_P(Robustness, BridgeFindingSurvivesGarbage) {
  util::Rng rng(15);
  const Vertex n = 24;
  const Graph g = graph::gnp(n, 0.3, rng);
  const PublicCoins coins(16);
  const protocols::BridgeFinding protocol(4);
  CommStats comm;
  const auto sketches = collect_sketches(g, protocol, coins, comm);
  // A truncated sketch loses its trailing 64-bit sum first.
  expect_edge_in_range(
      protocol.decode(n, truncate_all(sketches, GetParam()), coins), n);
  expect_edge_in_range(
      protocol.decode(n, garbage_all(n, GetParam(), rng), coins), n);
}

TEST_P(Robustness, NeedleOneSidedSurvivesGarbage) {
  util::Rng rng(17);
  const Vertex n = 24;
  const PublicCoins coins(18);
  const protocols::NeedleOneSided protocol(12, 64);
  expect_edge_in_range(
      protocol.decode(n, garbage_all(n, GetParam(), rng), coins), n);
}

INSTANTIATE_TEST_SUITE_P(TruncationLevels, Robustness,
                         ::testing::Values(0, 1, 3, 7, 17, 33, 64, 129));

TEST(Robustness, TrivialDecodeWithEmptySketches) {
  const PublicCoins coins(6);
  const protocols::TrivialMaximalMatching protocol;
  std::vector<util::BitString> empties(10);
  const auto output = protocol.decode(10, empties, coins);
  EXPECT_TRUE(output.empty());  // empty bitmap reads as all-zero rows
}

TEST(Robustness, AgmDecodeWithZeroSketches) {
  // All-zero AGM states decode as an empty graph: no forest edges.
  const PublicCoins coins(7);
  const protocols::AgmSpanningForest protocol;
  util::Rng rng(8);
  const Graph g = graph::gnp(12, 0.3, rng);
  CommStats comm;
  auto sketches = collect_sketches(g, protocol, coins, comm);
  // Zero out: same length, all zero bits.
  std::vector<util::BitString> zeroed;
  for (const auto& s : sketches) {
    util::BitWriter w;
    for (std::size_t b = 0; b < s.bit_count(); b += 64) {
      w.put_bits(0, static_cast<unsigned>(
                        std::min<std::size_t>(64, s.bit_count() - b)));
    }
    zeroed.emplace_back(w);
  }
  const auto output = protocol.decode(12, zeroed, coins);
  EXPECT_TRUE(output.empty());
}

TEST(Robustness, ColoringWithGarbageStillInRangeOrUncolored) {
  util::Rng rng(9);
  const PublicCoins coins(10);
  const protocols::PaletteSparsificationColoring protocol(8, 4);
  const auto garbage = garbage_all(15, 50, rng);
  const auto colors = protocol.decode(15, garbage, coins);
  ASSERT_EQ(colors.size(), 15u);
  for (std::uint32_t c : colors) {
    EXPECT_TRUE(c == protocols::kUncolored || c < 8);
  }
}

}  // namespace
}  // namespace ds::model
