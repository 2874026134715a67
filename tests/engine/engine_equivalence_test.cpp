// Engine-equivalence regression suite (ISSUE 5 satellite 1): the round
// engine must reproduce the seed-era execution paths bit for bit.
//
// The golden values below were captured from the SEED tree (commit
// d83392a, before src/engine/ existed) by running the then-current
// one-round and adaptive runners on fixed instances and hashing the
// serialized sketches and outputs with FNV-1a 64.  Every path that now
// delegates to engine::run_rounds — model::run_protocol, the audited
// runner, and the loopback referee service, each one entry point for
// one-round and multi-round protocols alike — must still produce exactly
// these CommStats, sketch bits and outputs, at 1, 4 and
// hardware_concurrency threads, with and without a SketchArena.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "audit/audited_runner.h"
#include "engine/arena.h"
#include "graph/generators.h"
#include "graph/weighted.h"
#include "model/runner.h"
#include "parallel/thread_pool.h"
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
#include "service/output_codec.h"
#include "service/player_client.h"
#include "service/referee_service.h"
#include "wire/loopback.h"

namespace ds {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// FNV-1a 64 over serialized bits — the exact scheme the goldens were
// captured with: fold bit_count, then each storage word, bytes LSB first.

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t hash_bits(std::uint64_t h, const util::BitString& s) {
  h = fnv1a(h, s.bit_count());
  for (std::uint64_t w : s.words()) h = fnv1a(h, w);
  return h;
}

std::uint64_t hash_sketches(std::span<const util::BitString> sketches) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const util::BitString& s : sketches) h = hash_bits(h, s);
  return h;
}

template <typename Output>
std::uint64_t hash_output(const Output& out) {
  util::BitWriter w;
  service::OutputCodec<Output>::encode(out, w);
  const util::BitString bits(w);
  return hash_bits(0xcbf29ce484222325ull, bits);
}

// expect_simulated compares whole outputs, and DensestResult declares no
// ==: compare its OutputCodec bits.
bool operator==(const graph::DensestResult& a, const graph::DensestResult& b) {
  return hash_output(a) == hash_output(b);
}

// ---------------------------------------------------------------------------
// Seed-era goldens.

struct OneRoundGolden {
  const char* label;
  std::uint64_t coin_seed;
  std::size_t max_bits;
  std::size_t total_bits;
  std::size_t num_players;
  std::uint64_t sketch_hash;
  std::uint64_t output_hash;
  static constexpr std::size_t broadcast_bits = 0;  // R = 1: no downlink
};

struct AdaptiveGolden {
  const char* label;
  std::uint64_t coin_seed;
  std::size_t max_bits;
  std::size_t total_bits;
  std::size_t num_players;
  std::size_t broadcast_bits;
  std::uint64_t output_hash;
};

graph::Graph one_round_graph() {
  util::Rng rng(7);
  return graph::gnp(26, 0.25, rng);
}

graph::Graph adaptive_graph() {
  util::Rng rng(31);
  return graph::gnp(20, 0.3, rng);
}

graph::WeightedGraph weighted_graph() {
  util::Rng rng(51);
  const graph::Graph topo = graph::gnp(16, 0.3, rng);
  std::vector<graph::WeightedEdge> wedges;
  for (const graph::Edge& e : topo.edges()) {
    wedges.push_back(
        {e.u, e.v, static_cast<std::uint32_t>(1 + rng.next_below(3))});
  }
  return graph::WeightedGraph::from_edges(16, wedges);
}

std::vector<std::size_t> thread_counts() {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return {1, 4, hw};
}

// ---------------------------------------------------------------------------
// Per-path checkers, one per entry point, for one-round and multi-round
// protocols alike.  Each runs one execution path and compares against a
// golden row; SCOPED_TRACE names the protocol on failure.

/// One-round goldens also pin the round's sketches, through the
/// collect-only path; the adaptive capture hashed outputs only.
template <typename Graph, typename Output>
void expect_sketches(const Graph& g,
                     const model::SketchingProtocol<Output>& protocol,
                     const OneRoundGolden& want, parallel::ThreadPool& pool) {
  const model::PublicCoins coins(want.coin_seed);
  model::CommStats comm;
  const std::vector<util::BitString> sketches =
      model::collect_sketches(g, protocol, coins, comm, &pool);
  EXPECT_EQ(hash_sketches(sketches), want.sketch_hash);
  EXPECT_EQ(comm.max_bits, want.max_bits);
  EXPECT_EQ(comm.total_bits, want.total_bits);
  EXPECT_EQ(comm.num_players, want.num_players);
}

template <typename Graph, typename Protocol>
void expect_sketches(const Graph&, const Protocol&, const AdaptiveGolden&,
                     parallel::ThreadPool&) {}

template <typename Graph, typename Protocol, typename Golden>
void expect_simulated(const Graph& g, const Protocol& protocol,
                      const Golden& want) {
  SCOPED_TRACE(want.label);
  const model::PublicCoins coins(want.coin_seed);
  for (const std::size_t threads : thread_counts()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    parallel::ThreadPool pool(threads);
    expect_sketches(g, protocol, want, pool);

    // Full run, without and (twice, to reach steady state) with an arena.
    const auto plain = model::run_protocol(g, protocol, coins, &pool);
    EXPECT_EQ(plain.comm.max_bits, want.max_bits);
    EXPECT_EQ(plain.comm.total_bits, want.total_bits);
    EXPECT_EQ(plain.comm.num_players, want.num_players);
    EXPECT_EQ(plain.broadcast_bits, want.broadcast_bits);
    EXPECT_EQ(hash_output(plain.output), want.output_hash);

    engine::SketchArena arena;
    for (int trial = 0; trial < 2; ++trial) {
      const auto pooled =
          model::run_protocol(g, protocol, coins, &pool, &arena);
      EXPECT_EQ(pooled.comm.total_bits, want.total_bits);
      EXPECT_EQ(pooled.comm.max_bits, want.max_bits);
      EXPECT_EQ(pooled.broadcast_bits, want.broadcast_bits);
      EXPECT_EQ(hash_output(pooled.output), want.output_hash);
      EXPECT_TRUE(pooled.output == plain.output);
    }
  }
}

/// Audited path: same engine loop with the audit source.
template <typename Graph, typename Output, typename Golden>
void expect_audited(const Graph& g, const model::Protocol<Output>& protocol,
                    const Golden& want) {
  SCOPED_TRACE(want.label);
  const audit::AuditedRunner runner(want.coin_seed);
  const auto run = runner.run(g, protocol);
  EXPECT_EQ(run.comm.max_bits, want.max_bits);
  EXPECT_EQ(run.comm.total_bits, want.total_bits);
  EXPECT_EQ(run.comm.num_players, want.num_players);
  EXPECT_EQ(run.broadcast_bits, want.broadcast_bits);
  EXPECT_EQ(hash_output(run.output), want.output_hash);
  EXPECT_GE(run.report.players_audited, want.num_players);
}

/// Loopback service path: kPlayers client threads shard the vertices and
/// the served CommStats/output must match the simulated golden exactly.
template <typename Output, typename Golden>
void expect_served(const graph::Graph& g,
                   const model::Protocol<Output>& protocol,
                   const Golden& want) {
  SCOPED_TRACE(want.label);
  const model::PublicCoins coins(want.coin_seed);
  constexpr std::size_t kPlayers = 3;
  std::vector<std::unique_ptr<wire::Link>> referee_links;
  std::vector<std::unique_ptr<wire::Link>> player_links;
  for (std::size_t i = 0; i < kPlayers; ++i) {
    wire::LoopbackPair pair = wire::make_loopback_pair();
    referee_links.push_back(std::move(pair.referee_side));
    player_links.push_back(std::move(pair.player_side));
  }
  const service::RefereeService referee(std::move(referee_links),
                                        want.coin_seed, 5000ms);
  std::vector<std::thread> clients;
  clients.reserve(kPlayers);
  for (std::size_t i = 0; i < kPlayers; ++i) {
    clients.emplace_back([&, i] {
      (void)service::play_protocol(
          *player_links[i], g,
          service::shard_vertices(g.num_vertices(), kPlayers, i), protocol,
          coins, 5000ms);
    });
  }
  const auto served = service::serve_protocol(
      referee.links(), protocol, g.num_vertices(), coins, 5000ms);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(served.comm.max_bits, want.max_bits);
  EXPECT_EQ(served.comm.total_bits, want.total_bits);
  EXPECT_EQ(served.comm.num_players, want.num_players);
  EXPECT_EQ(served.uplink.payload_bits, want.total_bits);
  EXPECT_EQ(served.broadcast_bits, want.broadcast_bits);
  EXPECT_EQ(hash_output(served.output), want.output_hash);
}

/// A multi-round run's whole transcript: every round's sketches in round
/// order, then every broadcast, folded into one FNV-1a hash.
template <typename Output>
std::uint64_t hash_transcript(const graph::Graph& g,
                              const model::Protocol<Output>& protocol,
                              std::uint64_t coin_seed,
                              parallel::ThreadPool& pool) {
  const model::PublicCoins coins(coin_seed);
  const graph::Vertex n = g.num_vertices();
  auto source = engine::make_local_source(
      n, engine::graph_view_fn(g, coins), protocol, &pool);
  engine::PlainInstrumentation instr;
  const auto run = engine::run_rounds(n, protocol, coins, source, instr);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::vector<util::BitString>& round : run.all_rounds) {
    for (const util::BitString& s : round) h = hash_bits(h, s);
  }
  for (const util::BitString& b : run.broadcasts) h = hash_bits(h, b);
  return h;
}

// ---------------------------------------------------------------------------
// The goldens, verbatim from the seed capture.

constexpr OneRoundGolden kSpanningForest{
    "agm-spanning-forest", 101, 16368, 425568, 26,
    0x1fc4b36ce33afc8cull, 0xfa0d45ff1746b3b3ull};
constexpr OneRoundGolden kTrivialMm{
    "trivial-mm", 102, 26, 676, 26,
    0x6d1a4c848c8ccc58ull, 0x857456af94ae553bull};
constexpr OneRoundGolden kTrivialMis{
    "trivial-mis", 103, 26, 676, 26,
    0x6d1a4c848c8ccc58ull, 0xa05dcb31ecfb75d9ull};
constexpr OneRoundGolden kBudgetedMatching{
    "budgeted-matching", 104, 62, 800, 26,
    0x21bb70fd305c4d28ull, 0x78a8a02e502c8173ull};
constexpr OneRoundGolden kBridgeFinding{
    "bridge-finding", 106, 89, 2265, 26,
    0x61bfa501fdc2f7e6ull, 0x47a591be264574a5ull};
constexpr OneRoundGolden kConnectivity{
    "agm-connectivity", 109, 16368, 425568, 26,
    0xfd63a501ff83e8d7ull, 0x89629fadf36d1224ull};
constexpr OneRoundGolden kKConnectivity{
    "k-connectivity", 110, 32736, 851136, 26,
    0x0909da33043c5627ull, 0x11973d5a4443a966ull};
constexpr OneRoundGolden kPaletteColoring{
    "palette-coloring", 111, 62, 776, 26,
    0xefe17119c708c370ull, 0xb286a9270af3eab6ull};
constexpr OneRoundGolden kWeightedMst{
    "mst-weight", 401, 40176, 642816, 16,
    0x7eb04706c79d6a76ull, 0xf95c743cbf5b8273ull};

constexpr AdaptiveGolden kTwoRoundMatching{
    "two-round-matching", 201, 26, 520, 20, 20, 0xf20026a1a4610a79ull};
constexpr AdaptiveGolden kTwoRoundMis{
    "two-round-mis", 202, 44, 185, 20, 20, 0xf2eed4f3d42dd857ull};
constexpr AdaptiveGolden kBudgetedTwoRound{
    "budgeted-two-round", 203, 48, 724, 20, 20, 0xec1d3a8892b81946ull};
constexpr AdaptiveGolden kLubyBcc{
    "luby-bcc", 204, 28, 560, 20, 540, 0xf9a6b2c0cf04b042ull};

// Captured at commit 8c8a2dc, before the neighbor-report format moved into
// protocols/budgeted.{h,cpp}: the report protocols the seed capture left
// unpinned, and each two-round row's transcript (hash_transcript).

constexpr OneRoundGolden kSampledSubgraph{
    "sampled-subgraph", 121, 47, 468, 26,
    0x0367a40054bab5c3ull, 0xfbf31a3f82e689d0ull};
constexpr OneRoundGolden kSampledDensest{
    "sampled-densest", 122, 42, 406, 26,
    0xdd28d1ae1c4979c3ull, 0x872e7610659e1ae4ull};
constexpr OneRoundGolden kSampledDegeneracy{
    "sampled-degeneracy", 123, 35, 466, 26,
    0x5a3145582791ea89ull, 0x476f71be2617aed5ull};
constexpr OneRoundGolden kNeedleOneSided{
    "needle-1sided", 124, 30, 356, 26,
    0xe23b71707c73bd1aull, 0x47a591be264574a5ull};
constexpr OneRoundGolden kBudgetedMis{
    "budgeted-mis", 125, 30, 661, 26,
    0x30dc4bacfa6bfdc9ull, 0xb695887b702a6442ull};

constexpr std::uint64_t kTwoRoundMatchingTranscript = 0xb28112fa7a1a160eull;
constexpr std::uint64_t kTwoRoundMisTranscript = 0x49daa670e171c22cull;
constexpr std::uint64_t kBudgetedTwoRoundTranscript = 0x67cf9eb184ca42e5ull;
constexpr std::uint64_t kLubyBccTranscript = 0x4380ed6b7b2b8e19ull;

// ---------------------------------------------------------------------------

TEST(EngineEquivalence, SimulatedRunnerMatchesSeedGoldens) {
  const graph::Graph g = one_round_graph();
  expect_simulated(g, protocols::AgmSpanningForest{}, kSpanningForest);
  expect_simulated(g, protocols::TrivialMaximalMatching{}, kTrivialMm);
  expect_simulated(g, protocols::TrivialMis{}, kTrivialMis);
  expect_simulated(g, protocols::BudgetedMatching{64}, kBudgetedMatching);
  expect_simulated(g, protocols::BridgeFinding{4}, kBridgeFinding);
  expect_simulated(g, protocols::AgmConnectivity{}, kConnectivity);
  expect_simulated(g, protocols::KConnectivityCertificate{2}, kKConnectivity);
  expect_simulated(g, protocols::PaletteSparsificationColoring{16, 6},
                   kPaletteColoring);
}

TEST(EngineEquivalence, WeightedRunnerMatchesSeedGolden) {
  const graph::WeightedGraph wg = weighted_graph();
  expect_simulated(wg, protocols::MstWeight{3}, kWeightedMst);
  expect_audited(wg, protocols::MstWeight{3}, kWeightedMst);
}

TEST(EngineEquivalence, AuditedRunnerMatchesSeedGoldens) {
  const graph::Graph g = one_round_graph();
  expect_audited(g, protocols::AgmSpanningForest{}, kSpanningForest);
  expect_audited(g, protocols::TrivialMis{}, kTrivialMis);
  expect_audited(g, protocols::BudgetedMatching{64}, kBudgetedMatching);
  expect_audited(g, protocols::KConnectivityCertificate{2}, kKConnectivity);
}

TEST(EngineEquivalence, LoopbackServiceMatchesSeedGoldens) {
  const graph::Graph g = one_round_graph();
  expect_served(g, protocols::AgmSpanningForest{}, kSpanningForest);
  expect_served(g, protocols::TrivialMaximalMatching{}, kTrivialMm);
  expect_served(g, protocols::BridgeFinding{4}, kBridgeFinding);
}

TEST(EngineEquivalence, AdaptiveRunnerMatchesSeedGoldens) {
  const graph::Graph g = adaptive_graph();
  const protocols::TwoRoundMatching two_round_matching{4, 8};
  const protocols::TwoRoundMis two_round_mis{0.3, 8};
  const protocols::BudgetedTwoRoundMatching budgeted{48, 48};
  const protocols::LubyBroadcastMis luby =
      protocols::make_luby_bcc(g.num_vertices());
  expect_simulated(g, two_round_matching, kTwoRoundMatching);
  expect_audited(g, two_round_matching, kTwoRoundMatching);
  expect_simulated(g, two_round_mis, kTwoRoundMis);
  expect_audited(g, two_round_mis, kTwoRoundMis);
  expect_simulated(g, budgeted, kBudgetedTwoRound);
  expect_audited(g, budgeted, kBudgetedTwoRound);
  expect_simulated(g, luby, kLubyBcc);
  expect_audited(g, luby, kLubyBcc);
}

TEST(EngineEquivalence, ReportProtocolsMatchParentGoldens) {
  const graph::Graph g = one_round_graph();
  expect_simulated(g, protocols::SampledSubgraph{0.5}, kSampledSubgraph);
  expect_simulated(g, protocols::SampledDensestSubgraph{0.5},
                   kSampledDensest);
  expect_simulated(g, protocols::SampledDegeneracy{0.5}, kSampledDegeneracy);
  expect_simulated(g, protocols::NeedleOneSided{13, 32}, kNeedleOneSided);
  expect_simulated(g, protocols::BudgetedMis{32}, kBudgetedMis);

  const graph::Graph ag = adaptive_graph();
  const protocols::TwoRoundMatching two_round_matching{4, 8};
  const protocols::TwoRoundMis two_round_mis{0.3, 8};
  const protocols::BudgetedTwoRoundMatching budgeted{48, 48};
  const protocols::LubyBroadcastMis luby =
      protocols::make_luby_bcc(ag.num_vertices());
  for (const std::size_t threads : thread_counts()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    parallel::ThreadPool pool(threads);
    EXPECT_EQ(hash_transcript(ag, two_round_matching,
                              kTwoRoundMatching.coin_seed, pool),
              kTwoRoundMatchingTranscript);
    EXPECT_EQ(hash_transcript(ag, two_round_mis, kTwoRoundMis.coin_seed, pool),
              kTwoRoundMisTranscript);
    EXPECT_EQ(hash_transcript(ag, budgeted, kBudgetedTwoRound.coin_seed, pool),
              kBudgetedTwoRoundTranscript);
    EXPECT_EQ(hash_transcript(ag, luby, kLubyBcc.coin_seed, pool),
              kLubyBccTranscript);
  }
}

TEST(EngineEquivalence, LoopbackAdaptiveServiceMatchesSeedGoldens) {
  const graph::Graph g = adaptive_graph();
  expect_served(g, protocols::TwoRoundMatching{4, 8}, kTwoRoundMatching);
  expect_served(g, protocols::TwoRoundMis{0.3, 8}, kTwoRoundMis);
}

/// An arena handed fewer slots than vertices must still be safe: prepare
/// grows it, and results stay identical to the arena-free run.
TEST(EngineEquivalence, ArenaReuseAcrossDifferentProtocols) {
  const graph::Graph g = one_round_graph();
  engine::SketchArena arena;
  const model::PublicCoins coins_a(kSpanningForest.coin_seed);
  const model::PublicCoins coins_b(kTrivialMis.coin_seed);
  // Interleave two protocols through ONE arena: buffers pooled from one
  // protocol's sketches are recycled into the other's encodes.
  for (int trial = 0; trial < 3; ++trial) {
    const auto a = model::run_protocol(g, protocols::AgmSpanningForest{},
                                       coins_a, nullptr, &arena);
    EXPECT_EQ(hash_output(a.output), kSpanningForest.output_hash);
    const auto b = model::run_protocol(g, protocols::TrivialMis{}, coins_b,
                                       nullptr, &arena);
    EXPECT_EQ(hash_output(b.output), kTrivialMis.output_hash);
  }
}

}  // namespace
}  // namespace ds
