// Public coins for the distributed sketching model.
//
// All players and the referee share a random string fixed before the input
// is revealed (Section 2.1).  We realize it as a seed: any party may derive
// the stream tagged (purpose, index) and all parties deriving the same tag
// read identical bits.  Because streams are derived by hashing and never
// consumed destructively, a player cannot "use up" coins another player
// needs — matching the shared-random-string abstraction exactly.
#pragma once

#include <cstdint>

#include "util/hashing.h"
#include "util/rng.h"

namespace ds::model {

class PublicCoins {
 public:
  explicit PublicCoins(std::uint64_t seed) noexcept
      : root_(seed), seed_(seed) {}

  /// The seed this coin sequence was constructed from.  Two PublicCoins
  /// with equal seeds are behaviourally identical (every stream/hash call
  /// agrees), so the seed is a sound identity key for caching sketch
  /// shapes derived from the coins.
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// An Rng stream for the given tag; equal tags yield equal streams.
  [[nodiscard]] util::Rng stream(std::uint64_t tag) const noexcept {
    return root_.child(tag);
  }
  [[nodiscard]] util::Rng stream(std::uint64_t tag_hi,
                                 std::uint64_t tag_lo) const noexcept {
    return root_.child(tag_hi, tag_lo);
  }

  /// A k-wise independent hash function keyed by tag, identical for every
  /// party that asks for the same tag.
  [[nodiscard]] util::KWiseHash hash(std::uint64_t tag,
                                     unsigned independence) const {
    util::Rng rng = stream(tag);
    return util::KWiseHash(independence, rng);
  }

 private:
  util::Rng root_;
  std::uint64_t seed_ = 0;
};

/// Well-known tag prefixes, so independent subsystems never collide on a
/// coin stream. Tags are formed as mix64(prefix, index).
enum class CoinTag : std::uint64_t {
  kLevelHash = 0x101,       // L0 sampler level hashes
  kBucketHash = 0x102,      // KMV sample hashes
  kFingerprint = 0x103,     // sparse-recovery fingerprints
  kEdgeSample = 0x201,      // budgeted edge-sampling protocols
  kPalette = 0x301,         // palette sparsification color lists
  kMark = 0x401,            // two-round MIS vertex marking
  kShuffle = 0x501,         // referee-side tie-breaking
};

[[nodiscard]] inline std::uint64_t coin_tag(CoinTag prefix,
                                            std::uint64_t index) noexcept {
  return util::mix64(static_cast<std::uint64_t>(prefix), index);
}

}  // namespace ds::model
