// Recovery of s-sparse signed vectors by hashing into 1-sparse cells.
//
// A grid of `rows` x `cols` OneSparse summaries; row hashes are pairwise
// independent (derived from public coins), cols ~ 2s so each nonzero lands
// alone in its cell with probability >= 1/2 per row.  Linear, hence
// mergeable.  Used directly by protocols that want "send me up to s edges,
// compressed", and as a building block everywhere a constant-failure
// recovery is enough.
//
// The cell grid is a OneSparseBank (row-major) over the SSparse's own
// state words, and add_batch hashes a whole span of indices per row hash
// per call — same bit-identity contract as the L0 sampler.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "model/coins.h"
#include "sketch/one_sparse.h"
#include "util/hashing.h"

namespace ds::sketch {

class SSparse {
 public:
  /// Shape: recovers vectors with up to `sparsity` nonzeros from index
  /// space [0, universe); `rows` independent repetitions (failure
  /// probability drops geometrically in rows).
  static SSparse make(const model::PublicCoins& coins, std::uint64_t tag,
                      std::uint64_t universe, std::uint32_t sparsity,
                      std::uint32_t rows = 6);

  void add(std::uint64_t index, std::int64_t delta) {
    add_to(state_, index, delta);
  }

  /// Batched add of a whole index row at one delta: equivalent to
  /// add(indices[i], delta) for every i in order, but each row hash is
  /// evaluated over the full span per call.
  void add_batch(std::span<const std::uint64_t> indices, std::int64_t delta);

  void merge(const SSparse& other);

  /// All recovered (index, count) pairs, sorted by index, or nullopt if
  /// the vector was detectably not s-sparse (more than `sparsity`
  /// distinct indices decoded).  Counts of zero never appear.
  [[nodiscard]] std::optional<std::vector<Recovered>> decode() const;

  void write(util::BitWriter& out) const;
  void read(util::BitReader& in);
  [[nodiscard]] std::size_t state_bits() const;

 private:
  SSparse() = default;

  void add_to(std::span<std::uint64_t> state, std::uint64_t index,
              std::int64_t delta) const;

  std::uint64_t universe_ = 0;
  std::uint32_t sparsity_ = 0;
  std::uint32_t rows_ = 0;
  std::uint32_t cols_ = 0;
  std::vector<util::KWiseHash> row_hash_;  // one per row
  OneSparseBank cells_;                    // rows_ * cols_, row-major
  std::vector<std::uint64_t> state_;       // cells_.state_words() words
};

}  // namespace ds::sketch
