// The allocation gates.  The arena (engine/arena.h): once a SketchArena
// is warm, the encode loop performs no per-vertex heap allocation, and
// pooling never changes a bit of any sketch.  The wire path (docs/WIRE.md):
// on one easy-cc trial, a player's encode allocates nothing per vertex,
// its frames allocate only for the batch's growth, the collector copies
// each accepted payload once, and the referee's decode allocates a number
// of buffers that does not grow with n.
//
// Allocations are counted by a global operator-new override, so this
// file is its own executable (ds_alloc_tests): linked into ds_tests, the
// override would change allocation for every other suite.  Every count
// runs on an explicit ThreadPool(1), so nothing else allocates while a
// region is measured and the counts are exact.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "engine/arena.h"
#include "engine/local_source.h"
#include "graph/generators.h"
#include "model/runner.h"
#include "parallel/thread_pool.h"
#include "protocols/sampled_matching.h"
#include "protocols/spanning_forest.h"
#include "protocols/trivial.h"
#include "scenario/builtin.h"
#include "scenario/registry.h"
#include "scenario/typed.h"
#include "service/player_client.h"
#include "service/session.h"
#include "util/rng.h"

namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Not inlined, so GCC never pairs an inlined free() with operator new
// (a -Wmismatched-new-delete false positive).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace ds {
namespace {

std::size_t allocs() { return g_alloc_count.load(std::memory_order_relaxed); }

std::uint64_t fingerprint(std::span<const util::BitString> sketches) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (const util::BitString& s : sketches) {
    h = util::mix64(h, s.bit_count());
    for (const std::uint64_t w : s.words()) h = util::mix64(h, w);
  }
  return h;
}

struct EncodeCount {
  std::size_t allocs_per_trial = 0;
  std::uint64_t fingerprint = 0;
};

/// `trials` encode-only rounds through a LocalSource after two warm-up
/// rounds; with an arena each round's storage is reclaimed after the
/// trial, as a sweep does.
template <typename Output>
EncodeCount count_encode(const graph::Graph& g,
                         const model::SketchingProtocol<Output>& protocol,
                         const model::PublicCoins& coins, std::size_t trials,
                         engine::SketchArena* arena) {
  parallel::ThreadPool pool(1);
  auto source = engine::make_local_source(
      g.num_vertices(), engine::graph_view_fn(g, coins), protocol, &pool,
      arena);
  EncodeCount count;
  const auto round = [&] {
    std::vector<util::BitString> sketches = source.collect(0, {});
    count.fingerprint = fingerprint(sketches);
    if (arena != nullptr) arena->reclaim_round(std::move(sketches), 0);
  };
  round();
  round();
  const std::size_t before = allocs();
  for (std::size_t t = 0; t < trials; ++t) round();
  count.allocs_per_trial = (allocs() - before) / trials;
  return count;
}

/// Pooled encode: fewer allocations per trial than vertices, or (for a
/// protocol that allocates inside its own encode) at least one fewer per
/// vertex than unpooled; and the same bits either way.
template <typename Output>
void expect_pooled_encode_gate(
    const graph::Graph& g, const model::SketchingProtocol<Output>& protocol,
    std::uint64_t coin_seed, std::size_t trials) {
  const model::PublicCoins coins(coin_seed);
  const std::size_t n = g.num_vertices();
  const EncodeCount unpooled =
      count_encode(g, protocol, coins, trials, nullptr);
  engine::SketchArena arena;
  const EncodeCount pooled = count_encode(g, protocol, coins, trials, &arena);

  EXPECT_TRUE(pooled.allocs_per_trial < n ||
              pooled.allocs_per_trial + n <= unpooled.allocs_per_trial)
      << protocol.name() << ": pooled " << pooled.allocs_per_trial
      << " allocs/trial, unpooled " << unpooled.allocs_per_trial
      << ", n = " << n;
  EXPECT_EQ(pooled.fingerprint, unpooled.fingerprint) << protocol.name();
}

TEST(ArenaAlloc, AgmSpanningForestEncodeSavesABufferPerVertex) {
  util::Rng rng(7);
  const graph::Graph g = graph::gnp(192, 0.08, rng);
  expect_pooled_encode_gate(g, protocols::AgmSpanningForest{}, 11, 10);
}

TEST(ArenaAlloc, TrivialMisEncodeSavesABufferPerVertex) {
  util::Rng rng(9);
  const graph::Graph g = graph::gnp(1024, 0.02, rng);
  expect_pooled_encode_gate(g, protocols::TrivialMis{}, 12, 40);
}

/// Allocations across `runs` trials after one warm-up trial that sizes
/// the arena.
std::size_t count_trials(const scenario::Scenario& s, std::size_t budget,
                         std::size_t runs, engine::SketchArena* arena) {
  parallel::ThreadPool pool(1);
  (void)s.run_trial(budget, util::derive_seed(97, 0), &pool, arena);
  const std::size_t before = allocs();
  for (std::size_t i = 1; i <= runs; ++i) {
    (void)s.run_trial(budget, util::derive_seed(97, i), &pool, arena);
  }
  return allocs() - before;
}

constexpr std::size_t kRuns = 32;

TEST(ArenaAlloc, EncodeOnlyProbeTrialStopsAllocatingPerVertex) {
  // A fixed instance, the adjacency-bitmap protocol and a constant judge:
  // what is left to allocate per vertex is the encode buffer the arena
  // pools.
  constexpr graph::Vertex kN = 256;
  util::Rng rng(4242);
  const graph::Graph fixed = graph::gnp(kN, 0.05, rng);
  const scenario::InlineScenario<model::MatchingOutput> probe(
      "alloc-probe", "encode-only arena allocation probe", kN,
      scenario::Grid{{kN}, 1, 1, 0.0},
      [&fixed](std::uint64_t) { return scenario::Instance{fixed, nullptr}; },
      [](std::size_t) {
        return std::make_unique<protocols::TrivialMaximalMatching>();
      },
      [](const scenario::Instance&, const model::MatchingOutput&) {
        return true;
      });

  const std::size_t unpooled = count_trials(probe, kN, kRuns, nullptr);
  engine::SketchArena arena;
  const std::size_t pooled = count_trials(probe, kN, kRuns, &arena);

  // Without an arena the probe pays at least one buffer per vertex, or
  // it no longer isolates the encode path.
  EXPECT_GE(unpooled / kRuns, kN);
  EXPECT_LT(pooled / kRuns, kN);
}

TEST(ArenaAlloc, EasyCcSweepTrialSavesABufferPerVertex) {
  // Decode and judge allocate per protocol and are not pooled, so the
  // gate on a registered scenario is on the savings.
  const scenario::Scenario* s = scenario::find("easy-cc");
  ASSERT_NE(s, nullptr);
  const std::size_t budget = s->default_grid().budgets.back();
  const std::size_t n = s->num_vertices();

  const std::size_t unpooled = count_trials(*s, budget, kRuns, nullptr);
  engine::SketchArena arena;
  const std::size_t pooled = count_trials(*s, budget, kRuns, &arena);

  EXPECT_LE(pooled + kRuns * n, unpooled)
      << "pooled " << pooled << ", unpooled " << unpooled << " over "
      << kRuns << " trials, n = " << n;
}

// ---------------------------------------------------------------------
// The wire path, on one trial shaped like wire-easycc's: n = 4096 in
// clusters of 16, a 1024-bit budget that fits every neighbor list, two
// players of 2048 vertices each.
// ---------------------------------------------------------------------

constexpr std::size_t kWireBudget = 1024;
constexpr std::size_t kWirePlayers = 2;
constexpr std::uint64_t kWireSeed = 51;

class WireTrial {
 public:
  WireTrial()
      : g_(scenario::EasyCcScenario(256, 16, 0.9).sample(kWireSeed).g),
        coins_(scenario::trial_coins(kWireSeed)),
        proto_(wire::protocol_id(protocol_.name())) {}

  [[nodiscard]] graph::Vertex n() const { return g_.num_vertices(); }
  [[nodiscard]] const protocols::BudgetedMatching& protocol() const {
    return protocol_;
  }
  [[nodiscard]] std::uint32_t proto() const { return proto_; }
  [[nodiscard]] const model::PublicCoins& coins() const { return coins_; }
  [[nodiscard]] std::vector<graph::Vertex> owned(std::size_t player) const {
    return service::shard_vertices(n(), kWirePlayers, player);
  }

  [[nodiscard]] auto view_fn() const {
    return engine::graph_view_fn(g_, coins_);
  }

  /// Every vertex's sketch, in vertex order.
  [[nodiscard]] std::vector<util::BitString> sketches() const {
    const auto view_of = view_fn();
    std::vector<util::BitString> out;
    for (graph::Vertex v = 0; v < n(); ++v) {
      util::BitWriter w;
      protocol_.encode(view_of(v), w);
      out.emplace_back(std::move(w));
    }
    return out;
  }

  /// Player `player`'s batch of sketch frames.
  [[nodiscard]] std::vector<std::uint8_t> message(
      std::size_t player, std::span<const util::BitString> sketches) const {
    std::vector<std::uint8_t> batch;
    for (const graph::Vertex v : owned(player)) {
      (void)service::append_sketch_frame(batch, proto_, v, 0, sketches[v]);
    }
    return batch;
  }

 private:
  graph::Graph g_;
  model::PublicCoins coins_;
  protocols::BudgetedMatching protocol_{kWireBudget};
  std::uint32_t proto_;
};

TEST(WireAlloc, PlayerEncodeIntoOneWriterAllocatesNothingPerVertex) {
  const WireTrial trial;
  const std::vector<graph::Vertex> owned = trial.owned(0);
  const auto view_of = trial.view_fn();
  util::BitWriter writer;
  const auto encode_all = [&] {
    for (const graph::Vertex v : owned) {
      writer.clear();
      trial.protocol().encode(view_of(v), writer);
    }
  };
  encode_all();  // grows the writer to the longest sketch
  const std::size_t before = allocs();
  encode_all();
  EXPECT_EQ(allocs() - before, 0u) << owned.size() << " vertices";
}

TEST(WireAlloc, SketchFramesAllocateOnlyForTheBatchGrowth) {
  const WireTrial trial;
  const std::vector<util::BitString> sketches = trial.sketches();
  const std::vector<graph::Vertex> owned = trial.owned(0);
  std::vector<std::uint8_t> batch;
  std::size_t growths = 0;
  const std::size_t before = allocs();
  for (const graph::Vertex v : owned) {
    const std::size_t capacity = batch.capacity();
    (void)service::append_sketch_frame(batch, trial.proto(), v, 0,
                                       sketches[v]);
    if (batch.capacity() != capacity) ++growths;
  }
  EXPECT_EQ(allocs() - before, growths) << owned.size() << " frames";
  EXPECT_EQ(batch, trial.message(0, sketches));
}

TEST(WireAlloc, CollectorCopiesEachAcceptedPayloadOnce) {
  const WireTrial trial;
  const std::vector<util::BitString> sketches = trial.sketches();
  const std::vector<std::uint8_t> first = trial.message(0, sketches);
  const std::vector<std::uint8_t> second = trial.message(1, sketches);
  service::RoundCollector collector({trial.n(), trial.proto(), 0});
  const std::size_t before = allocs();
  const std::size_t accepted = collector.offer_message(first, "conn", 0) +
                               collector.offer_message(second, "conn", 1);
  const std::size_t count = allocs() - before;
  ASSERT_EQ(accepted, trial.n());
  // Every sketch holds at least its count header, so each accepted frame
  // takes exactly one word buffer.
  EXPECT_EQ(count, accepted);

  const service::CollectedRound round = std::move(collector).finish();
  ASSERT_EQ(round.sketches.size(), sketches.size());
  for (graph::Vertex v = 0; v < trial.n(); ++v) {
    ASSERT_EQ(round.sketches[v].bit_count(), sketches[v].bit_count()) << v;
    ASSERT_EQ(round.sketches[v].words(), sketches[v].words()) << v;
  }
}

TEST(WireAlloc, ReportedGraphDecodeAllocatesNothingPerVertex) {
  const WireTrial trial;
  const std::vector<util::BitString> sketches = trial.sketches();
  const std::size_t before = allocs();
  const model::MatchingOutput matching =
      trial.protocol().decode(trial.n(), sketches, trial.coins());
  const std::size_t count = allocs() - before;
  // The edge list, the CSR's arrays and scratch, the shuffled edge order
  // and the matching's own doubling growth: a few dozen buffers at most,
  // where reading each report into a vector of its own took one per
  // vertex.
  EXPECT_LE(count, 32u) << "n = " << trial.n();
  EXPECT_GT(matching.size(), trial.n() / 4);
}

}  // namespace
}  // namespace ds
