// Modular arithmetic over 64-bit primes.
//
// Used by the hashing layer (polynomial k-wise-independent families need a
// prime field) and by the sparse-recovery sketches (fingerprints over F_p
// make false one-sparse decodes exponentially unlikely in the word size).
//
// The operations below are the innermost loop of every sketch update and
// hash evaluation, so they are defined inline here and carry a branch-free
// Mersenne fast path for the default field: kDefaultPrime = 2^61 - 1 means
// 2^61 == 1 (mod p), so a 128-bit product reduces with two shift-and-add
// folds instead of a hardware 128-bit division.  Every fast path computes
// the mathematically identical residue in [0, m) — callers observe the
// same values bit for bit regardless of which path ran (the bit-identity
// contract of docs/ENGINE.md; pinned by tests/util/modular_test.cpp).
#pragma once

#include <cstdint>

namespace ds::util {

/// A fixed 61-bit prime (the Mersenne prime 2^61 - 1), comfortably above
/// every index space we hash, so a single field serves all default hash
/// families and fingerprints.
inline constexpr std::uint64_t kDefaultPrime = (std::uint64_t{1} << 61) - 1;

static_assert(kDefaultPrime < (std::uint64_t{1} << 62));

namespace detail {

/// Reduce a full 128-bit value mod 2^61 - 1.  Fold twice (each fold maps
/// x to (x mod 2^61) + floor(x / 2^61), preserving the residue because
/// 2^61 == 1 mod p), then one conditional subtract: after the second fold
/// the value is < 2^61 + 127 < 2p, so a single subtract lands in [0, p).
[[nodiscard]] inline std::uint64_t reduce128_m61(__uint128_t x) noexcept {
  x = (x & kDefaultPrime) + (x >> 61);  // < 2^67 + 2^61
  x = (x & kDefaultPrime) + (x >> 61);  // < 2^61 + 2^7
  auto r = static_cast<std::uint64_t>(x);
  return r >= kDefaultPrime ? r - kDefaultPrime : r;
}

/// Reduce a 64-bit value mod 2^61 - 1 (one fold suffices: the quotient
/// part is at most 7).
[[nodiscard]] inline std::uint64_t reduce64_m61(std::uint64_t x) noexcept {
  const std::uint64_t r = (x & kDefaultPrime) + (x >> 61);  // < p + 8
  return r >= kDefaultPrime ? r - kDefaultPrime : r;
}

}  // namespace detail

/// x mod m, with the Mersenne fast path for the default prime.
[[nodiscard]] inline std::uint64_t reduce_mod(std::uint64_t x,
                                              std::uint64_t m) noexcept {
  if (m == kDefaultPrime) return detail::reduce64_m61(x);
  return x % m;
}

/// (a * b) mod m without overflow, via 128-bit intermediate.
[[nodiscard]] inline std::uint64_t mul_mod(std::uint64_t a, std::uint64_t b,
                                           std::uint64_t m) noexcept {
  const __uint128_t prod = static_cast<__uint128_t>(a) * b;
  if (m == kDefaultPrime) return detail::reduce128_m61(prod);
  return static_cast<std::uint64_t>(prod % m);
}

/// (a + b) mod m; a, b must already be reduced.
[[nodiscard]] inline std::uint64_t add_mod(std::uint64_t a, std::uint64_t b,
                                           std::uint64_t m) noexcept {
  const std::uint64_t s = a + b;
  // a, b < m <= 2^63 in all our uses, but handle wrap defensively.
  return (s >= m || s < a) ? s - m : s;
}

/// (a - b) mod m; a, b must already be reduced.
[[nodiscard]] inline std::uint64_t sub_mod(std::uint64_t a, std::uint64_t b,
                                           std::uint64_t m) noexcept {
  return (a >= b) ? a - b : a + (m - b);
}

/// a^e mod m by square-and-multiply.
[[nodiscard]] inline std::uint64_t pow_mod(std::uint64_t a, std::uint64_t e,
                                           std::uint64_t m) noexcept {
  std::uint64_t result = 1 % m;
  a %= m;
  while (e > 0) {
    if (e & 1) result = mul_mod(result, a, m);
    a = mul_mod(a, a, m);
    e >>= 1;
  }
  return result;
}

/// Modular inverse of a mod prime p (a != 0 mod p), via the extended
/// Euclidean algorithm: the same residue as Fermat's pow_mod(a, p - 2, p),
/// in O(log a) divisions (a couple of steps for the small counts sparse
/// recovery divides by) instead of ~2 log2 p multiplies.
[[nodiscard]] std::uint64_t inv_mod(std::uint64_t a, std::uint64_t p) noexcept;

/// Deterministic Miller-Rabin, exact for all 64-bit inputs.
[[nodiscard]] bool is_prime(std::uint64_t n) noexcept;

/// Smallest prime >= n (n <= 2^63 so the search cannot wrap).
[[nodiscard]] std::uint64_t next_prime(std::uint64_t n) noexcept;

}  // namespace ds::util
