#include "sketch/s_sparse.h"

#include <algorithm>
#include <cassert>

namespace ds::sketch {

SSparse SSparse::make(const model::PublicCoins& coins, std::uint64_t tag,
                      std::uint64_t universe, std::uint32_t sparsity,
                      std::uint32_t rows) {
  assert(sparsity >= 1 && rows >= 1);
  SSparse s;
  s.universe_ = universe;
  s.sparsity_ = sparsity;
  s.rows_ = rows;
  s.cols_ = 2 * sparsity;
  s.row_hash_.reserve(rows);
  std::vector<std::uint64_t> tags;
  tags.reserve(static_cast<std::size_t>(rows) * s.cols_);
  for (std::uint32_t row = 0; row < rows; ++row) {
    const std::uint64_t row_tag = util::mix64(tag, 0xBB00 + row);
    s.row_hash_.push_back(
        coins.hash(model::coin_tag(model::CoinTag::kBucketHash, row_tag), 2));
    for (std::uint32_t col = 0; col < s.cols_; ++col) {
      tags.push_back(util::mix64(row_tag, col));
    }
  }
  s.cells_ = OneSparseBank::make(coins, tags, universe);
  s.state_.assign(s.cells_.state_words(), 0);
  return s;
}

void SSparse::add_to(std::span<std::uint64_t> state, std::uint64_t index,
                     std::int64_t delta) const {
  assert(index < universe_);
  for (std::uint32_t row = 0; row < rows_; ++row) {
    const std::uint64_t col = row_hash_[row].bounded(index, cols_);
    cells_.add(state, static_cast<std::size_t>(row) * cols_ + col, index,
               delta);
  }
}

void SSparse::add_batch(std::span<const std::uint64_t> indices,
                        std::int64_t delta) {
  thread_local std::vector<std::uint64_t> col_scratch;
  col_scratch.resize(indices.size());
  for (std::uint32_t row = 0; row < rows_; ++row) {
    row_hash_[row].bounded_batch(indices, cols_, col_scratch);
    const std::size_t base = static_cast<std::size_t>(row) * cols_;
    for (std::size_t i = 0; i < indices.size(); ++i) {
      cells_.add(state_, base + col_scratch[i], indices[i], delta);
    }
  }
}

void SSparse::merge(const SSparse& other) {
  assert(universe_ == other.universe_ && rows_ == other.rows_ &&
         cols_ == other.cols_);
  merge_states(state_, other.state_);
}

std::optional<std::vector<Recovered>> SSparse::decode() const {
  // Peeling: repeatedly recover a 1-sparse cell and subtract the recovered
  // element everywhere, until the residual is zero (success) or no cell
  // decodes (over-sparse or hash-unlucky: fail).
  std::vector<std::uint64_t> work = state_;
  std::vector<Recovered> found;
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t cell = 0; cell < cells_.size(); ++cell) {
      const DecodeResult r = cells_.decode(work, cell);
      if (r.status != DecodeStatus::kOne) continue;
      found.push_back(r.value);
      if (found.size() > sparsity_) return std::nullopt;
      add_to(work, r.value.index, -r.value.count);
      progress = true;
    }
  }
  for (std::size_t cell = 0; cell < cells_.size(); ++cell) {
    if (cells_.decode(work, cell).status != DecodeStatus::kZero) {
      return std::nullopt;
    }
  }
  std::sort(found.begin(), found.end(),
            [](const Recovered& a, const Recovered& b) {
              return a.index < b.index;
            });
  return found;
}

void SSparse::write(util::BitWriter& out) const { write_states(state_, out); }

void SSparse::read(util::BitReader& in) { read_states(state_, in); }

std::size_t SSparse::state_bits() const { return cells_.state_bits(); }

}  // namespace ds::sketch
