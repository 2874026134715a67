// The arena allocation gate (engine/arena.h): once a SketchArena is warm,
// the encode loop performs no per-vertex heap allocation, and pooling
// never changes a bit of any sketch.
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
#include "protocols/spanning_forest.h"
#include "protocols/trivial.h"
#include "scenario/registry.h"
#include "scenario/typed.h"
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

}  // namespace
}  // namespace ds
