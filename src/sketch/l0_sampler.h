// L0 sampling: return a (near-)uniform nonzero coordinate of a signed
// vector, from a small linear summary.
//
// Geometric level subsampling with a pairwise-independent hash: level l
// keeps each index with probability 2^-l; the level whose survivor count
// is ~1 decodes via OneSparse.  A single sampler succeeds with constant
// probability; callers needing high probability keep several independent
// samplers (the AGM sketch keeps one per Boruvka round anyway).
//
// The level table is a OneSparseBank (structure-of-arrays, one contiguous
// allocation), and add_batch hashes a whole span of indices per call
// through util::sample_level_batch — the word-at-a-time/batched hot path
// of docs/ENGINE.md.  Both are bit-identical to the scalar per-edge path.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "model/coins.h"
#include "sketch/one_sparse.h"
#include "util/hashing.h"

namespace ds::sketch {

class L0Sampler {
 public:
  static L0Sampler make(const model::PublicCoins& coins, std::uint64_t tag,
                        std::uint64_t universe);

  void add(std::uint64_t index, std::int64_t delta);

  /// Batched add: equivalent to add(indices[i], deltas[i]) for every i
  /// in order, but evaluates the level hash over the whole span per call.
  void add_batch(std::span<const std::uint64_t> indices,
                 std::span<const std::int64_t> deltas);

  void merge(const L0Sampler& other);

  /// A nonzero coordinate, or nullopt (vector zero at every level, or all
  /// levels failed to be 1-sparse).
  [[nodiscard]] std::optional<Recovered> decode() const;

  /// True iff every level decodes to zero — evidence (not proof) that the
  /// summarized vector is zero.
  [[nodiscard]] bool looks_zero() const;

  /// Start loading the level table into cache (OneSparseBank::prefetch).
  void prefetch() const noexcept { levels_.prefetch(); }

  void write(util::BitWriter& out) const;
  void read(util::BitReader& in);
  [[nodiscard]] std::size_t state_bits() const;

  [[nodiscard]] unsigned num_levels() const noexcept {
    return static_cast<unsigned>(levels_.size());
  }

 private:
  L0Sampler() = default;

  std::uint64_t universe_ = 0;
  std::optional<util::KWiseHash> level_hash_;
  OneSparseBank levels_;
};

}  // namespace ds::sketch
