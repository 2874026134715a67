// k-wise independent hash families over a prime field.
//
// The L0 samplers behind the AGM spanning-forest sketch need pairwise
// independence for their level-subsampling and bucket-assignment hashes;
// palette sparsification and the budgeted sampling protocols key their
// public-coin choices through these families too, so that every player
// evaluating the same seeded family sees the same function.
//
// Hot-path notes (docs/ENGINE.md): evaluation is inline, coefficients for
// the common small k live in the object (no heap indirection), and the
// batch entry points evaluate a whole span of keys per call — the sketch
// layer hashes an adjacency row at a time instead of an edge at a time.
// Every path (scalar or batch, pairwise-specialized or generic Horner)
// computes the identical polynomial over F_p, so hash values — and hence
// every downstream sketch bit — are independent of which path ran.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/modular.h"
#include "util/rng.h"

namespace ds::util {

/// Degree-(k-1) polynomial over F_p: h(x) = sum_i c_i x^i mod p, a k-wise
/// independent family when the coefficients are uniform.
class KWiseHash {
 public:
  /// Draw a function with the given independence k >= 1 from `rng`.
  KWiseHash(unsigned k, Rng& rng, std::uint64_t prime = kDefaultPrime);

  /// h(x) in [0, p).
  [[nodiscard]] std::uint64_t operator()(std::uint64_t x) const noexcept {
    const std::uint64_t xr = reduce_mod(x, prime_);
    if (k_ == 2) {
      // Pairwise fast path: h(x) = c1*x + c0, the family the sketches use.
      return add_mod(mul_mod(coeff(1), xr, prime_), coeff(0), prime_);
    }
    return horner(xr);
  }

  /// Batched evaluation: out[i] = h(xs[i]).  Requires equal extents.
  void eval_batch(std::span<const std::uint64_t> xs,
                  std::span<std::uint64_t> out) const noexcept;

  [[nodiscard]] unsigned independence() const noexcept { return k_; }
  [[nodiscard]] std::uint64_t prime() const noexcept { return prime_; }

 private:
  [[nodiscard]] std::uint64_t coeff(unsigned i) const noexcept {
    return i < kInlineCoeffs ? small_[i] : spill_[i - kInlineCoeffs];
  }
  [[nodiscard]] std::uint64_t horner(std::uint64_t xr) const noexcept {
    // Highest coefficient first.
    std::uint64_t acc = 0;
    for (unsigned i = k_; i-- > 0;) {
      acc = add_mod(mul_mod(acc, xr, prime_), coeff(i), prime_);
    }
    return acc;
  }

  /// Coefficients for k <= kInlineCoeffs (the pairwise and 4-wise
  /// families everything hot uses) live inline so copying a hash — the
  /// sketch-template fast path — touches no heap.
  static constexpr unsigned kInlineCoeffs = 4;

  unsigned k_ = 0;
  std::uint64_t prime_ = kDefaultPrime;
  std::array<std::uint64_t, kInlineCoeffs> small_{};  // c_0 .. c_3
  std::vector<std::uint64_t> spill_;                  // c_4 .. c_{k-1}
};

/// Convenience: the pairwise (k=2) family used by the sketches.
[[nodiscard]] KWiseHash make_pairwise(Rng& rng);

/// Geometric level assignment for L0 sampling: the largest l such that
/// h(x) is divisible by 2^l, capped at max_level.  With a pairwise-
/// independent h, Pr[level(x) >= l] ~ 2^-l.
[[nodiscard]] unsigned sample_level(const KWiseHash& hash, std::uint64_t x,
                                    unsigned max_level) noexcept;

/// Batched level assignment: out[i] = sample_level(hash, xs[i], max_level).
/// Requires equal extents.
void sample_level_batch(const KWiseHash& hash,
                        std::span<const std::uint64_t> xs, unsigned max_level,
                        std::span<std::uint32_t> out) noexcept;

}  // namespace ds::util
