// L0 sampling: return a (near-)uniform nonzero coordinate of a signed
// vector, from a small linear summary.
//
// Geometric level subsampling with a pairwise-independent hash: level l
// keeps each index with probability 2^-l; the level whose survivor count
// is ~1 decodes via OneSparse.  A single sampler succeeds with constant
// probability; callers needing high probability keep several independent
// samplers (the AGM sketch keeps one per Boruvka round anyway).
//
// An L0Sampler is a shape (the level hash and a OneSparseBank of levels);
// its state is the levels' states, in words the caller owns (written,
// read and merged by the one_sparse.h state functions).  add_batch hashes a
// whole span of indices per call through util::sample_level_batch — the
// batched hot path of docs/ENGINE.md, bit-identical to per-index add().
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>

#include "model/coins.h"
#include "sketch/one_sparse.h"
#include "util/hashing.h"

namespace ds::sketch {

class L0Sampler {
 public:
  static L0Sampler make(const model::PublicCoins& coins, std::uint64_t tag,
                        std::uint64_t universe);

  /// Levels of a sampler over [0, universe).
  [[nodiscard]] static unsigned levels_for(std::uint64_t universe) noexcept;

  void add(std::span<std::uint64_t> state, std::uint64_t index,
           std::int64_t delta) const;

  /// Batched add: add(state, indices[i], deltas[i]) for every i in
  /// order, evaluating the level hash over the whole span per call.
  void add_batch(std::span<std::uint64_t> state,
                 std::span<const std::uint64_t> indices,
                 std::span<const std::int64_t> deltas) const;

  /// A nonzero coordinate, or nullopt (vector zero at every level, or all
  /// levels failed to be 1-sparse).
  [[nodiscard]] std::optional<Recovered> decode(
      std::span<const std::uint64_t> state) const;

  /// True iff every level decodes to zero — evidence (not proof) that the
  /// summarized vector is zero.
  [[nodiscard]] bool looks_zero(std::span<const std::uint64_t> state) const;

  [[nodiscard]] std::size_t state_words() const noexcept {
    return levels_.state_words();
  }
  [[nodiscard]] std::size_t state_bits() const noexcept {
    return levels_.state_bits();
  }

  [[nodiscard]] unsigned num_levels() const noexcept {
    return static_cast<unsigned>(levels_.size());
  }

 private:
  L0Sampler(const util::KWiseHash& level_hash, OneSparseBank levels)
      : level_hash_(level_hash), levels_(std::move(levels)) {}

  util::KWiseHash level_hash_;
  OneSparseBank levels_;
};

}  // namespace ds::sketch
