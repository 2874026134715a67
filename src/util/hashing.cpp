#include "util/hashing.h"

#include <bit>
#include <cassert>

namespace ds::util {

KWiseHash::KWiseHash(unsigned k, Rng& rng, std::uint64_t prime)
    : k_(k), prime_(prime) {
  assert(k >= 1);
  assert(is_prime(prime));
  if (k > kInlineCoeffs) spill_.reserve(k - kInlineCoeffs);
  // Draw order is part of the public-coin contract: c_0 first, ascending,
  // exactly as the original vector-backed implementation drew them.
  for (unsigned i = 0; i < k; ++i) {
    const std::uint64_t c = rng.next_below(prime);
    if (i < kInlineCoeffs) {
      small_[i] = c;
    } else {
      spill_.push_back(c);
    }
  }
  // A zero leading coefficient only shrinks the family, never breaks
  // independence, so we accept whatever the draw produced.
}

void KWiseHash::eval_batch(std::span<const std::uint64_t> xs,
                           std::span<std::uint64_t> out) const noexcept {
  assert(xs.size() == out.size());
  if (k_ == 2 && prime_ == kDefaultPrime) {
    // Pairwise over the Mersenne field: both coefficients stay in
    // registers across the whole row.
    const std::uint64_t c1 = coeff(1);
    const std::uint64_t c0 = coeff(0);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const std::uint64_t xr = detail::reduce64_m61(xs[i]);
      out[i] = add_mod(mul_mod(c1, xr, kDefaultPrime), c0, kDefaultPrime);
    }
    return;
  }
  for (std::size_t i = 0; i < xs.size(); ++i) out[i] = (*this)(xs[i]);
}

KWiseHash make_pairwise(Rng& rng) { return KWiseHash(2, rng); }

unsigned sample_level(const KWiseHash& hash, std::uint64_t x,
                      unsigned max_level) noexcept {
  const std::uint64_t value = hash(x);
  if (value == 0) return max_level;
  const unsigned tz = static_cast<unsigned>(std::countr_zero(value));
  return tz < max_level ? tz : max_level;
}

void sample_level_batch(const KWiseHash& hash,
                        std::span<const std::uint64_t> xs, unsigned max_level,
                        std::span<std::uint32_t> out) noexcept {
  assert(xs.size() == out.size());
  // sample_level inlines the pairwise fast path of operator(), so one loop
  // serves both the specialized and the generic family.
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out[i] = sample_level(hash, xs[i], max_level);
  }
}

}  // namespace ds::util
