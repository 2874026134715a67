#include "util/hashing.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

namespace ds::util {
namespace {

TEST(KWiseHash, DeterministicGivenStream) {
  Rng a(5), b(5);
  KWiseHash h1(2, a), h2(2, b);
  for (std::uint64_t x = 0; x < 100; ++x) EXPECT_EQ(h1(x), h2(x));
}

TEST(KWiseHash, OutputsBelowPrime) {
  Rng rng(6);
  KWiseHash h(3, rng);
  for (std::uint64_t x = 0; x < 1000; ++x) EXPECT_LT(h(x), h.prime());
}

TEST(KWiseHash, BoundedApproximatelyUniformAcrossFunctions) {
  // Pairwise independence: for fixed x, h(x) is uniform over the draw of
  // h, and stays near-uniform reduced mod a range << p.
  Rng rng(8);
  constexpr int kFunctions = 4000;
  constexpr std::uint64_t kRange = 8;
  std::map<std::uint64_t, int> histogram;
  for (int i = 0; i < kFunctions; ++i) {
    KWiseHash h(2, rng);
    ++histogram[h(12345) % kRange];
  }
  for (std::uint64_t b = 0; b < kRange; ++b) {
    EXPECT_NEAR(histogram[b], kFunctions / kRange,
                6 * std::sqrt(kFunctions / kRange));
  }
}

TEST(KWiseHash, PairwiseCollisionRate) {
  // Pr[h(x) == h(y) mod range] ~ 1/range for x != y.
  Rng rng(9);
  constexpr int kFunctions = 2000;
  constexpr std::uint64_t kRange = 16;
  int collisions = 0;
  for (int i = 0; i < kFunctions; ++i) {
    KWiseHash h(2, rng);
    if (h(3) % kRange == h(77) % kRange) ++collisions;
  }
  EXPECT_NEAR(collisions / static_cast<double>(kFunctions), 1.0 / kRange,
              0.02);
}

TEST(KWiseHash, IndependenceParameterStored) {
  Rng rng(10);
  for (unsigned k = 1; k <= 6; ++k) {
    KWiseHash h(k, rng);
    EXPECT_EQ(h.independence(), k);
  }
}

TEST(SampleLevel, GeometricDistribution) {
  Rng rng(11);
  constexpr unsigned kMaxLevel = 20;
  constexpr int kItems = 200000;
  KWiseHash h(2, rng);
  std::vector<int> at_least(kMaxLevel + 1, 0);
  for (std::uint64_t x = 0; x < kItems; ++x) {
    const unsigned level = sample_level(h, x, kMaxLevel);
    for (unsigned l = 0; l <= level; ++l) ++at_least[l];
  }
  // Pr[level >= l] ~ 2^-l.
  for (unsigned l = 1; l <= 8; ++l) {
    const double expected = kItems * std::pow(0.5, l);
    EXPECT_NEAR(at_least[l], expected, 6 * std::sqrt(expected) + 20.0)
        << "level " << l;
  }
}

TEST(SampleLevel, CappedAtMax) {
  Rng rng(12);
  KWiseHash h(2, rng);
  for (std::uint64_t x = 0; x < 1000; ++x) {
    EXPECT_LE(sample_level(h, x, 5), 5u);
  }
}

}  // namespace
}  // namespace ds::util
