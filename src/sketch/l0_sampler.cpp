#include "sketch/l0_sampler.h"

#include <bit>
#include <cassert>
#include <vector>

namespace ds::sketch {

L0Sampler L0Sampler::make(const model::PublicCoins& coins, std::uint64_t tag,
                          std::uint64_t universe) {
  assert(universe > 0);
  const unsigned num_levels = levels_for(universe);
  std::vector<std::uint64_t> tags;
  tags.reserve(num_levels);
  for (unsigned level = 0; level < num_levels; ++level) {
    tags.push_back(util::mix64(tag, 0xCC00 + level));
  }
  return L0Sampler(
      coins.hash(model::coin_tag(model::CoinTag::kLevelHash, tag), 2),
      OneSparseBank::make(coins, tags, universe));
}

unsigned L0Sampler::levels_for(std::uint64_t universe) noexcept {
  return static_cast<unsigned>(std::bit_width(universe)) + 2;
}

void L0Sampler::add(std::span<std::uint64_t> state, std::uint64_t index,
                    std::int64_t delta) const {
  assert(index < levels_.universe());
  const unsigned max_level = num_levels() - 1;
  const unsigned level = util::sample_level(level_hash_, index, max_level);
  // Index participates in every level up to its sampled level (the nested
  // subsampling makes level l's survivor set a subset of level l-1's).
  levels_.add_prefix(state, level, index, delta);
}

void L0Sampler::add_batch(std::span<std::uint64_t> state,
                          std::span<const std::uint64_t> indices,
                          std::span<const std::int64_t> deltas) const {
  assert(indices.size() == deltas.size());
  const unsigned max_level = num_levels() - 1;
  // One hash evaluation pass over the whole row, then the level walks.
  // thread_local scratch: add_batch runs on pool workers; the buffer is
  // instrumentation-free state that never outlives the call's semantics.
  thread_local std::vector<std::uint32_t> level_scratch;
  level_scratch.resize(indices.size());
  util::sample_level_batch(level_hash_, indices, max_level, level_scratch);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    levels_.add_prefix(state, level_scratch[i], indices[i], deltas[i]);
  }
}

std::optional<Recovered> L0Sampler::decode(
    std::span<const std::uint64_t> state) const {
  // Prefer the sparsest non-empty level: scan from the top.
  for (std::size_t l = levels_.size(); l-- > 0;) {
    const DecodeResult r = levels_.decode(state, l);
    if (r.status == DecodeStatus::kOne) return r.value;
  }
  return std::nullopt;
}

bool L0Sampler::looks_zero(std::span<const std::uint64_t> state) const {
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    if (levels_.decode(state, l).status != DecodeStatus::kZero) return false;
  }
  return true;
}

}  // namespace ds::sketch
