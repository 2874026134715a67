#include "util/modular.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace ds::util {
namespace {

TEST(Modular, MulModSmall) {
  EXPECT_EQ(mul_mod(3, 4, 5), 2u);
  EXPECT_EQ(mul_mod(0, 99, 7), 0u);
  EXPECT_EQ(mul_mod(6, 6, 7), 1u);
}

TEST(Modular, MulModLarge) {
  const std::uint64_t p = kDefaultPrime;
  // (p-1)^2 mod p == 1.
  EXPECT_EQ(mul_mod(p - 1, p - 1, p), 1u);
  EXPECT_EQ(mul_mod(p - 1, 2, p), p - 2);
}

TEST(Modular, AddSubRoundTrip) {
  Rng rng(1);
  const std::uint64_t p = kDefaultPrime;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t a = rng.next_below(p);
    const std::uint64_t b = rng.next_below(p);
    EXPECT_EQ(sub_mod(add_mod(a, b, p), b, p), a);
    EXPECT_EQ(add_mod(sub_mod(a, b, p), b, p), a);
  }
}

TEST(Modular, PowModMatchesRepeatedMultiply) {
  const std::uint64_t p = 1000003;
  std::uint64_t acc = 1;
  for (std::uint64_t e = 0; e < 50; ++e) {
    EXPECT_EQ(pow_mod(7, e, p), acc);
    acc = mul_mod(acc, 7, p);
  }
}

TEST(Modular, PowModFermat) {
  const std::uint64_t p = kDefaultPrime;
  Rng rng(2);
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t a = 1 + rng.next_below(p - 1);
    EXPECT_EQ(pow_mod(a, p - 1, p), 1u);
  }
}

TEST(Modular, InvMod) {
  const std::uint64_t p = kDefaultPrime;
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t a = 1 + rng.next_below(p - 1);
    EXPECT_EQ(mul_mod(a, inv_mod(a, p), p), 1u);
  }
}

TEST(Modular, InvModMatchesFermat) {
  // The extended-Euclid inverse must be the exact residue Fermat's
  // a^(p-2) gives: in the sketch field, at 2^31 - 1, at a small prime,
  // and at 2^64 - 59, where the Bezout coefficients reach their widest.
  for (const std::uint64_t p :
       {kDefaultPrime, std::uint64_t{2147483647}, std::uint64_t{1000003},
        std::uint64_t{18446744073709551557ull}}) {
    std::vector<std::uint64_t> as = {1, 2, 3, p - 3, p - 2, p - 1, p + 1};
    for (unsigned k = 1; k < 64 && (std::uint64_t{1} << k) < p; ++k) {
      as.push_back(std::uint64_t{1} << k);
    }
    for (std::uint64_t c = 1; c <= 64; ++c) {  // small +-counts
      as.push_back(c);
      as.push_back(p - c);
    }
    Rng rng(p);
    for (int i = 0; i < 10000; ++i) as.push_back(1 + rng.next_below(p - 1));
    for (const std::uint64_t a : as) {
      ASSERT_EQ(inv_mod(a, p), pow_mod(a, p - 2, p)) << "a=" << a << " p=" << p;
    }
  }
}

TEST(Modular, IsPrimeSmall) {
  EXPECT_FALSE(is_prime(0));
  EXPECT_FALSE(is_prime(1));
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(3));
  EXPECT_FALSE(is_prime(4));
  EXPECT_TRUE(is_prime(5));
  EXPECT_FALSE(is_prime(9));
  EXPECT_TRUE(is_prime(97));
  EXPECT_FALSE(is_prime(91));  // 7 * 13
}

TEST(Modular, IsPrimeKnownLarge) {
  EXPECT_TRUE(is_prime(kDefaultPrime));
  EXPECT_TRUE(is_prime((1ULL << 61) - 1));      // Mersenne prime
  EXPECT_FALSE(is_prime((1ULL << 61) - 2));
  EXPECT_TRUE(is_prime(2147483647ULL));         // 2^31 - 1
  // Carmichael numbers must not fool the deterministic witnesses.
  EXPECT_FALSE(is_prime(561));
  EXPECT_FALSE(is_prime(1105));
  EXPECT_FALSE(is_prime(825265));
}

TEST(Modular, IsPrimeMatchesTrialDivision) {
  auto naive = [](std::uint64_t n) {
    if (n < 2) return false;
    for (std::uint64_t d = 2; d * d <= n; ++d) {
      if (n % d == 0) return false;
    }
    return true;
  };
  for (std::uint64_t n = 0; n < 2000; ++n) {
    EXPECT_EQ(is_prime(n), naive(n)) << n;
  }
}

TEST(Modular, NextPrime) {
  EXPECT_EQ(next_prime(0), 2u);
  EXPECT_EQ(next_prime(2), 2u);
  EXPECT_EQ(next_prime(3), 3u);
  EXPECT_EQ(next_prime(4), 5u);
  EXPECT_EQ(next_prime(90), 97u);
  EXPECT_EQ(next_prime(7920), 7927u);
}

}  // namespace
}  // namespace ds::util
