#include "util/modular.h"

#include <cassert>
#include <initializer_list>

namespace ds::util {

std::uint64_t inv_mod(std::uint64_t a, std::uint64_t p) noexcept {
  assert(a % p != 0);
  // Extended Euclid on (p, a), keeping only a's Bezout coefficient t_i
  // (r_i == t_i * a mod p).  The coefficients alternate in sign, so their
  // magnitudes obey |t_{i+1}| = |t_{i-1}| + q_i * |t_i| and never exceed
  // p: unsigned arithmetic holds them exactly, and the sign is the
  // parity of the step count.
  std::uint64_t r0 = p;
  std::uint64_t r1 = a % p;
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 1;
  bool negative = true;  // sign of t0 once the loop has run (t_0 == 0)
  while (r1 != 0) {
    const std::uint64_t q = r0 / r1;
    const std::uint64_t r2 = r0 - q * r1;
    const std::uint64_t t2 = t0 + q * t1;
    r0 = r1;
    r1 = r2;
    t0 = t1;
    t1 = t2;
    negative = !negative;
  }
  // r0 == gcd(p, a) == 1 for prime p, so the signed coefficient whose
  // magnitude is t0 is the inverse.
  return negative ? p - t0 : t0;
}

namespace {

bool miller_rabin_witness(std::uint64_t n, std::uint64_t a, std::uint64_t d,
                          int r) noexcept {
  std::uint64_t x = pow_mod(a, d, n);
  if (x == 1 || x == n - 1) return false;
  for (int i = 0; i < r - 1; ++i) {
    x = mul_mod(x, x, n);
    if (x == n - 1) return false;
  }
  return true;  // composite witness found
}

}  // namespace

bool is_prime(std::uint64_t n) noexcept {
  if (n < 2) return false;
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                          23ULL, 29ULL, 31ULL, 37ULL}) {
    if (n % p == 0) return n == p;
  }
  std::uint64_t d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  // This witness set is deterministic for all n < 2^64 (Sinclair).
  for (std::uint64_t a : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL,
                          23ULL, 29ULL, 31ULL, 37ULL}) {
    if (miller_rabin_witness(n, a, d, r)) return false;
  }
  return true;
}

std::uint64_t next_prime(std::uint64_t n) noexcept {
  assert(n <= (std::uint64_t{1} << 63));
  if (n <= 2) return 2;
  std::uint64_t candidate = n | 1;  // first odd >= n
  while (!is_prime(candidate)) candidate += 2;
  return candidate;
}

}  // namespace ds::util
