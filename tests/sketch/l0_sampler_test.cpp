#include "sketch/l0_sampler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "util/rng.h"

namespace ds::sketch {
namespace {

/// A sampler shape with one zeroed state of its own.
struct Sampler {
  Sampler(const model::PublicCoins& coins, std::uint64_t tag,
          std::uint64_t universe)
      : shape(L0Sampler::make(coins, tag, universe)),
        state(shape.state_words()) {}

  void add(std::uint64_t index, std::int64_t delta) {
    shape.add(state, index, delta);
  }
  [[nodiscard]] std::optional<Recovered> decode() const {
    return shape.decode(state);
  }

  L0Sampler shape;
  std::vector<std::uint64_t> state;
};

TEST(L0Sampler, EmptyVector) {
  const model::PublicCoins coins(1);
  const Sampler s(coins, 1, 1 << 16);
  EXPECT_FALSE(s.decode().has_value());
  EXPECT_TRUE(s.shape.looks_zero(s.state));
}

TEST(L0Sampler, SingletonAlwaysRecovered) {
  const model::PublicCoins coins(2);
  for (std::uint64_t idx : {0ULL, 1ULL, 12345ULL, 65535ULL}) {
    Sampler s(coins, 10 + idx, 1 << 16);
    s.add(idx, 1);
    const auto r = s.decode();
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->index, idx);
    EXPECT_EQ(r->count, 1);
    EXPECT_FALSE(s.shape.looks_zero(s.state));
  }
}

TEST(L0Sampler, DenseVectorUsuallyRecoversSomething) {
  int successes = 0;
  constexpr int kReps = 100;
  for (std::uint64_t rep = 0; rep < kReps; ++rep) {
    const model::PublicCoins coins(100 + rep);
    Sampler s(coins, 5, 1 << 16);
    for (std::uint64_t i = 0; i < 1000; ++i) s.add(i * 7 % 65536, 1);
    const auto r = s.decode();
    if (r.has_value()) {
      ++successes;
      EXPECT_EQ(r->index * 7 % 65536 * 0, 0u);  // index in range
      EXPECT_LT(r->index, 1u << 16);
    }
  }
  // Constant success probability per sampler; expect a solid majority.
  EXPECT_GT(successes, kReps / 2);
}

TEST(L0Sampler, RecoveredElementIsReal) {
  util::Rng rng(3);
  for (std::uint64_t rep = 0; rep < 50; ++rep) {
    const model::PublicCoins coins(200 + rep);
    Sampler s(coins, 6, 1 << 20);
    std::map<std::uint64_t, std::int64_t> truth;
    for (std::uint64_t idx : rng.sample_without_replacement(1 << 20, 40)) {
      truth[idx] = 1;
      s.add(idx, 1);
    }
    const auto r = s.decode();
    if (r.has_value()) {
      EXPECT_TRUE(truth.contains(r->index))
          << "sampler fabricated index " << r->index;
      EXPECT_EQ(r->count, truth[r->index]);
    }
  }
}

TEST(L0Sampler, SamplesApproximatelyUniformly) {
  // Over many independent samplers, each of 8 elements should be picked
  // a roughly equal number of times.
  std::map<std::uint64_t, int> histogram;
  constexpr int kReps = 3000;
  for (std::uint64_t rep = 0; rep < kReps; ++rep) {
    const model::PublicCoins coins(1000 + rep);
    Sampler s(coins, 7, 1 << 12);
    for (std::uint64_t idx = 0; idx < 8; ++idx) s.add(idx * 37, 1);
    const auto r = s.decode();
    if (r.has_value()) ++histogram[r->index];
  }
  int total = 0;
  for (const auto& [idx, count] : histogram) total += count;
  EXPECT_GT(total, kReps / 2);
  for (const auto& [idx, count] : histogram) {
    EXPECT_NEAR(count, total / 8.0, total * 0.1 + 30)
        << "index " << idx << " over/under-sampled";
  }
}

TEST(L0Sampler, MergeActsOnUnderlyingVector) {
  const model::PublicCoins coins(4);
  Sampler a(coins, 8, 1 << 10);
  Sampler b(coins, 8, 1 << 10);
  a.add(100, 1);
  a.add(200, 1);
  b.add(200, -1);
  b.add(300, 1);
  merge_states(a.state, b.state);
  // Underlying vector is {100: 1, 300: 1}.
  const auto r = a.decode();
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->index == 100 || r->index == 300);
}

TEST(L0Sampler, SerializationRoundTrip) {
  const model::PublicCoins coins(5);
  Sampler s(coins, 9, 1 << 10);
  s.add(777, 2);
  util::BitWriter w;
  write_states(s.state, w);
  EXPECT_EQ(w.bit_count(), s.shape.state_bits());

  Sampler restored(coins, 9, 1 << 10);
  const util::BitString bs(w);
    util::BitReader r(bs);
  read_states(restored.state, r);
  const auto d = restored.decode();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->index, 777u);
  EXPECT_EQ(d->count, 2);
}

TEST(L0Sampler, StateBitsAreLogSquared) {
  // levels ~ log U, each level O(word) bits: state ~ log^2 U.
  const model::PublicCoins coins(6);
  const Sampler small(coins, 10, 1 << 8);
  const Sampler large(coins, 11, 1ULL << 32);
  EXPECT_LT(small.shape.state_bits(), large.shape.state_bits());
  EXPECT_EQ(small.shape.num_levels(), 8u + 3u);
  EXPECT_EQ(large.shape.num_levels(), 33u + 2u);
}

}  // namespace
}  // namespace ds::sketch
