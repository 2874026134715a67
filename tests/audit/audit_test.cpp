// The audit layer audited: deliberately-cheating protocols — at least one
// per model invariant, and a covert channel spread over two rounds — must
// each be caught by AuditedRunner with a diagnostic naming the violated
// invariant, while every honest protocol in src/protocols/, one-round and
// multi-round, and both lower-bound search paths pass unchanged.
#include "audit/audited_runner.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <mutex>

#include "audit/audited_refined.h"
#include "graph/generators.h"
#include "lowerbound/protocol_search.h"
#include "model/runner.h"
#include "protocols/bridge_finding.h"
#include "protocols/budgeted_two_round.h"
#include "protocols/coloring.h"
#include "protocols/luby_bcc.h"
#include "protocols/needle.h"
#include "protocols/sampled_matching.h"
#include "protocols/sampled_mis.h"
#include "protocols/sampling_zoo.h"
#include "protocols/spanning_forest.h"
#include "protocols/trivial.h"
#include "protocols/two_round_matching.h"
#include "protocols/two_round_mis.h"
#include "protocols/zoo.h"
#include "rs/rs_graph.h"

namespace ds::audit {
namespace {

using graph::Graph;
using graph::Vertex;

Graph test_graph(std::uint64_t seed = 7, Vertex n = 24, double p = 0.2) {
  util::Rng rng(seed);
  return graph::gnp(n, p, rng);
}

// ---------------------------------------------------------------------------
// Cheating protocol 1: reads past the end of its own adjacency span — in a
// CSR layout that is the next player's row.  Only ever run under the
// audited runner, whose guard canaries make the out-of-row read defined
// (and detectable); in the plain runner this access would be out of bounds.
// ---------------------------------------------------------------------------
class NeighborRowPeeker final
    : public model::SketchingProtocol<model::VertexSetOutput> {
 public:
  void encode(const model::VertexView& view,
              util::BitWriter& out) const override {
    const Vertex beyond = view.neighbors.data()[view.neighbors.size()];
    out.put_bits(beyond, 32);
  }
  [[nodiscard]] model::VertexSetOutput decode(
      Vertex, std::span<const util::BitString>,
      const model::PublicCoins&) const override {
    return {};
  }
  [[nodiscard]] std::string name() const override { return "cheat-peeker"; }
};

// ---------------------------------------------------------------------------
// Cheating protocol 2: draws randomness outside the public coins (a mutable
// call counter standing in for rand()); two runs with identical coins
// produce different messages.  Players encode on pool workers, so the
// counter is atomic.
// ---------------------------------------------------------------------------
class HiddenStateEncoder final
    : public model::SketchingProtocol<model::VertexSetOutput> {
 public:
  void encode(const model::VertexView&,
              util::BitWriter& out) const override {
    out.put_bits(calls_.fetch_add(1, std::memory_order_relaxed), 32);
  }
  [[nodiscard]] model::VertexSetOutput decode(
      Vertex, std::span<const util::BitString>,
      const model::PublicCoins&) const override {
    return {};
  }
  [[nodiscard]] std::string name() const override { return "cheat-nondet"; }

 private:
  mutable std::atomic<std::uint64_t> calls_{0};
};

// ---------------------------------------------------------------------------
// Cheating protocol 3: under-reports its message length.  Each player is
// charged a single bit, but its whole adjacency row crosses to the referee
// through a stash on the protocol object — a covert channel the bit
// accounting never sees.  Players encode on pool workers, so the stash is
// guarded; the channel is the same at any thread count.
// ---------------------------------------------------------------------------
class StashChannelMis final
    : public model::SketchingProtocol<model::VertexSetOutput> {
 public:
  void encode(const model::VertexView& view,
              util::BitWriter& out) const override {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stash_.size() <= view.id) stash_.resize(view.id + 1);
      stash_[view.id].assign(view.neighbors.begin(), view.neighbors.end());
    }
    out.put_bit(false);  // the only bit ever charged
  }
  [[nodiscard]] model::VertexSetOutput decode(
      Vertex n, std::span<const util::BitString>,
      const model::PublicCoins&) const override {
    // Greedy MIS over the stashed (never-transmitted) adjacency.
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<bool> blocked(n, false);
    model::VertexSetOutput mis;
    for (Vertex v = 0; v < n; ++v) {
      if (blocked[v]) continue;
      mis.push_back(v);
      if (v < stash_.size()) {
        for (Vertex u : stash_[v]) {
          if (u < n) blocked[u] = true;
        }
      }
    }
    return mis;
  }
  [[nodiscard]] std::string name() const override { return "cheat-stash"; }

 private:
  mutable std::mutex mutex_;
  mutable std::vector<std::vector<Vertex>> stash_;
};

// ---------------------------------------------------------------------------
// Cheating protocol 3, spread over two rounds: each round charges one bit
// per player while the rows cross to the referee through the same stash.
// Every round of a multi-round run gets the scrub probe, so it is caught
// the same way.
// ---------------------------------------------------------------------------
class StashChannelTwoRoundMis final
    : public model::Protocol<model::VertexSetOutput> {
 public:
  [[nodiscard]] unsigned num_rounds() const override { return 2; }
  void encode_round(const model::VertexView& view, unsigned,
                    std::span<const util::BitString>,
                    util::BitWriter& out) const override {
    stash_.encode(view, out);
  }
  [[nodiscard]] util::BitString make_broadcast(
      unsigned, Vertex, std::span<const std::vector<util::BitString>>,
      const model::PublicCoins&) const override {
    return {};
  }
  [[nodiscard]] model::VertexSetOutput decode_rounds(
      Vertex n, std::span<const std::vector<util::BitString>> all_rounds,
      std::span<const util::BitString>,
      const model::PublicCoins& coins) const override {
    return stash_.decode(n, all_rounds.back(), coins);
  }
  [[nodiscard]] std::string name() const override {
    return "cheat-stash-two-round";
  }

 private:
  StashChannelMis stash_;
};

// ---------------------------------------------------------------------------
// Cheating refined encoder: its decoded report contains an edge the player
// never saw.
// ---------------------------------------------------------------------------
class FabricatingEncoder final : public lowerbound::RefinedEncoder {
 public:
  void encode(const lowerbound::DmmParameters&,
              const lowerbound::RefinedPlayer&,
              util::BitWriter& out) const override {
    out.put_bit(true);
  }
  [[nodiscard]] std::vector<graph::Edge> decode(
      const lowerbound::DmmParameters&, util::BitReader&) const override {
    return {{0, 1}};  // claimed by every player, seen by almost none
  }
  [[nodiscard]] std::string name() const override { return "cheat-fabricate"; }
};

// ===========================================================================
// The three cheats are each caught, with the right invariant named.
// ===========================================================================

TEST(AuditCheats, OutOfRowReadIsCaughtAsLocality) {
  const AuditedRunner runner(11);
  const NeighborRowPeeker cheat;
  try {
    (void)runner.run(test_graph(), cheat);
    FAIL() << "out-of-row read was not caught";
  } catch (const AuditError& e) {
    EXPECT_EQ(e.invariant(), Invariant::kLocality);
    EXPECT_NE(std::string(e.what()).find("locality"), std::string::npos);
  }
}

TEST(AuditCheats, HiddenRandomnessIsCaughtAsCoinDeterminism) {
  const AuditedRunner runner(12);
  const HiddenStateEncoder cheat;
  try {
    (void)runner.run(test_graph(), cheat);
    FAIL() << "nondeterministic encoder was not caught";
  } catch (const AuditError& e) {
    EXPECT_EQ(e.invariant(), Invariant::kCoinDeterminism);
    EXPECT_NE(std::string(e.what()).find("coin-determinism"),
              std::string::npos);
  }
}

TEST(AuditCheats, CovertChannelIsCaughtAsBitAccounting) {
  const AuditedRunner runner(13);
  const StashChannelMis cheat;
  try {
    (void)runner.run(test_graph(), cheat);
    FAIL() << "under-reported message length was not caught";
  } catch (const AuditError& e) {
    EXPECT_EQ(e.invariant(), Invariant::kBitAccounting);
    EXPECT_NE(std::string(e.what()).find("bit-accounting"),
              std::string::npos);
  }
}

TEST(AuditCheats, TwoRoundCovertChannelIsCaughtAsBitAccounting) {
  const AuditedRunner runner(14);
  const StashChannelTwoRoundMis cheat;
  try {
    (void)runner.run(test_graph(), cheat);
    FAIL() << "under-reported two-round message length was not caught";
  } catch (const AuditError& e) {
    EXPECT_EQ(e.invariant(), Invariant::kBitAccounting);
    EXPECT_NE(std::string(e.what()).find("bit-accounting"),
              std::string::npos);
  }
}

std::vector<Vertex> identity_sigma(const rs::RsGraph& base, std::uint64_t k) {
  const lowerbound::DmmParameters params = lowerbound::dmm_parameters(base, k);
  std::vector<Vertex> sigma(params.n);
  for (Vertex v = 0; v < params.n; ++v) sigma[v] = v;
  return sigma;
}

TEST(AuditCheats, FabricatedRefinedReportIsCaughtAsLocality) {
  const rs::RsGraph base = rs::book_rs(1, 2);
  const auto bits = lowerbound::EdgeBits::from_mask(2, 2, 1, 0b1011);
  const lowerbound::DmmInstance inst =
      lowerbound::build_dmm(base, 2, 0, bits, identity_sigma(base, 2));
  const auto players = lowerbound::build_refined_players(inst);
  const FabricatingEncoder cheat;
  try {
    (void)run_refined_audited(inst, players, cheat);
    FAIL() << "fabricated edge report was not caught";
  } catch (const AuditError& e) {
    EXPECT_EQ(e.invariant(), Invariant::kLocality);
  }
}

// ===========================================================================
// Honest protocols pass unchanged: same output, same accounting as the
// plain runner.
// ===========================================================================

template <typename Output>
void expect_clean_and_equivalent(
    const Graph& g, const model::SketchingProtocol<Output>& protocol,
    std::uint64_t seed) {
  const AuditedRunner runner(seed);
  const auto audited = runner.run(g, protocol);
  const model::PublicCoins coins(seed);
  const auto plain = model::run_protocol(g, protocol, coins);
  EXPECT_TRUE(audited.output == plain.output)
      << protocol.name() << ": audited output differs from plain run";
  EXPECT_EQ(audited.comm.max_bits, plain.comm.max_bits) << protocol.name();
  EXPECT_EQ(audited.comm.total_bits, plain.comm.total_bits)
      << protocol.name();
  EXPECT_EQ(audited.report.players_audited, g.num_vertices());
}

TEST(AuditClean, SketchingProtocolZooPasses) {
  const Graph g = test_graph(21, 26, 0.25);
  expect_clean_and_equivalent(g, protocols::AgmSpanningForest{}, 101);
  expect_clean_and_equivalent(g, protocols::TrivialMaximalMatching{}, 102);
  expect_clean_and_equivalent(g, protocols::TrivialMis{}, 103);
  expect_clean_and_equivalent(g, protocols::BudgetedMatching{64}, 104);
  expect_clean_and_equivalent(g, protocols::BudgetedMis{64}, 105);
  expect_clean_and_equivalent(g, protocols::BridgeFinding{4}, 106);
  expect_clean_and_equivalent(g, protocols::NeedleTwoSided{13}, 107);
  expect_clean_and_equivalent(g, protocols::NeedleOneSided{13, 48}, 108);
  expect_clean_and_equivalent(g, protocols::AgmConnectivity{}, 109);
  expect_clean_and_equivalent(g, protocols::KConnectivityCertificate{2}, 110);
  expect_clean_and_equivalent(
      g, protocols::PaletteSparsificationColoring{16, 6}, 111);
  expect_clean_and_equivalent(g, protocols::EdgeCountEstimate{8}, 112);
  expect_clean_and_equivalent(g, protocols::SampledSubgraph{0.5}, 113);
  expect_clean_and_equivalent(g, protocols::SampledDegeneracy{0.5}, 114);
}

TEST(AuditClean, AdaptiveProtocolsPass) {
  const Graph g = test_graph(31, 20, 0.3);
  const AuditedRunner runner(201);

  const protocols::TwoRoundMatching two_round{4, 8};
  const auto mm = runner.run(g, two_round);
  EXPECT_EQ(mm.by_round.size(), two_round.num_rounds());

  const protocols::TwoRoundMis two_round_mis{0.3, 8};
  const auto mis = runner.run(g, two_round_mis);
  EXPECT_EQ(mis.by_round.size(), two_round_mis.num_rounds());

  const protocols::BudgetedTwoRoundMatching budgeted{48, 48};
  (void)runner.run(g, budgeted);

  const protocols::LubyBroadcastMis luby =
      protocols::make_luby_bcc(g.num_vertices());
  (void)runner.run(g, luby);
}

TEST(AuditClean, AdaptiveMatchesPlainRunner) {
  const Graph g = test_graph(41, 18, 0.3);
  const std::uint64_t seed = 301;
  const protocols::TwoRoundMatching protocol{4, 8};
  const AuditedRunner runner(seed);
  const auto audited = runner.run(g, protocol);
  const model::PublicCoins coins(seed);
  const auto plain = model::run_protocol(g, protocol, coins);
  EXPECT_TRUE(audited.output == plain.output);
  EXPECT_EQ(audited.comm.max_bits, plain.comm.max_bits);
  EXPECT_EQ(audited.comm.total_bits, plain.comm.total_bits);
  EXPECT_EQ(audited.broadcast_bits, plain.broadcast_bits);
}

TEST(AuditClean, WeightedRunnerPasses) {
  util::Rng rng(51);
  const Graph topo = graph::gnp(16, 0.3, rng);
  std::vector<graph::WeightedEdge> wedges;
  for (const graph::Edge& e : topo.edges()) {
    wedges.push_back(
        {e.u, e.v, static_cast<std::uint32_t>(1 + rng.next_below(3))});
  }
  const graph::WeightedGraph wg =
      graph::WeightedGraph::from_edges(16, wedges);
  const protocols::MstWeight protocol{3};
  const std::uint64_t seed = 401;
  const AuditedRunner runner(seed);
  const auto audited = runner.run(wg, protocol);
  const model::PublicCoins coins(seed);
  const auto plain = model::run_protocol(wg, protocol, coins);
  EXPECT_EQ(audited.output, plain.output);
  EXPECT_EQ(audited.comm.max_bits, plain.comm.max_bits);
}

// ===========================================================================
// Both lower-bound search paths under audit: the accounting-path encoders
// (full / capped / silent) and the protocol-search degree-table class.
// ===========================================================================

TEST(AuditRefined, AccountingPathEncodersPass) {
  const rs::RsGraph base = rs::book_rs(1, 2);
  const auto bits = lowerbound::EdgeBits::from_mask(2, 2, 1, 0b0110);
  const lowerbound::DmmInstance inst =
      lowerbound::build_dmm(base, 2, 1, bits, identity_sigma(base, 2));
  const auto players = lowerbound::build_refined_players(inst);

  const lowerbound::FullReportEncoder full;
  const lowerbound::CappedReportEncoder capped(1);
  const lowerbound::SilentEncoder silent;
  const std::array<const lowerbound::RefinedEncoder*, 3> encoders = {
      &full, &capped, &silent};
  for (const lowerbound::RefinedEncoder* enc : encoders) {
    const AuditedRefinedResult result =
        run_refined_audited(inst, players, *enc);
    EXPECT_EQ(result.messages.size(), players.size()) << enc->name();
    // Audited messages must agree bit-for-bit with the plain path.
    const auto plain = lowerbound::run_refined(inst, players, *enc);
    ASSERT_EQ(plain.size(), result.messages.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
      EXPECT_TRUE(same_message(plain[i], result.messages[i]))
          << enc->name() << " player " << i;
    }
  }
}

TEST(AuditRefined, ProtocolSearchEncoderPasses) {
  const rs::RsGraph base = rs::book_rs(1, 2);
  const auto bits = lowerbound::EdgeBits::from_mask(2, 2, 1, 0b1111);
  const lowerbound::DmmInstance inst =
      lowerbound::build_dmm(base, 2, 0, bits, identity_sigma(base, 2));
  const auto players = lowerbound::build_refined_players(inst);

  const lowerbound::DegreeTableEncoder table(1, {0, 1, 1}, {0, 1, 1});
  const AuditedRefinedResult result =
      run_refined_audited(inst, players, table);
  EXPECT_EQ(result.max_message_bits, 1u);
  EXPECT_GT(result.report.bits_verified, 0u);
}

// ===========================================================================
// Report bookkeeping.
// ===========================================================================

TEST(AuditReportTest, CountsReflectReplaysAndScrubs) {
  const Graph g = test_graph(61, 10, 0.3);
  const AuditedRunner runner(501);
  const auto run = runner.run(g, protocols::TrivialMis{});
  // 3 guarded encodes + 1 order probe + 1 scrub per player.
  EXPECT_EQ(run.report.encode_calls, 5u * g.num_vertices());
  EXPECT_EQ(run.report.players_audited, g.num_vertices());
  EXPECT_GT(run.report.bits_verified, 0u);
}

TEST(AuditNames, InvariantNamesAreStable) {
  EXPECT_EQ(invariant_name(Invariant::kLocality), "locality");
  EXPECT_EQ(invariant_name(Invariant::kCoinDeterminism), "coin-determinism");
  EXPECT_EQ(invariant_name(Invariant::kBitAccounting), "bit-accounting");
}

}  // namespace
}  // namespace ds::audit
