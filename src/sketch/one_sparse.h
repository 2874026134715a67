// Exact recovery of 1-sparse signed vectors, with a fingerprint test.
//
// The basic building block of the AGM sketch.  A OneSparse summary of a
// vector x in Z^U holds
//     ell0 = sum_i x_i,
//     ell1 = sum_i x_i * i            (mod p),
//     fp   = sum_i x_i * z^i          (mod p, random z),
// which is linear, so summaries of two vectors merge by addition — this is
// what lets the referee combine per-vertex sketches into per-component
// sketches.  If x has exactly one nonzero coordinate (i*, c) then
// ell1/ell0 = i* and fp = c * z^{i*}; the fingerprint check fails for
// non-1-sparse x except with probability <= U/p over z.
//
// The *shape* (index space, modulus, z) is derived from public coins so
// players and referee agree on it without communication; only the *state*
// (three field words and a counter) is serialized into messages.
//
// Two types share the arithmetic:
//   * OneSparse — a standalone summary owning its state; the tests'
//     reference.
//   * OneSparseBank — the shape of N summaries whose states the caller
//     owns.  The L0 sampler's level table is a bank (docs/ENGINE.md "hot
//     path").  Slot i of a bank built from tag t_i is bit-identical in
//     shape and state to OneSparse::make(coins, t_i, universe) fed the
//     same updates — pinned by tests/sketch/batch_equivalence_test.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "model/coins.h"
#include "util/bitio.h"
#include "util/modular.h"

namespace ds::sketch {

struct Recovered {
  std::uint64_t index;
  std::int64_t count;
};

enum class DecodeStatus { kZero, kOne, kFail };

struct DecodeResult {
  DecodeStatus status;
  Recovered value;  // meaningful only when status == kOne
};

class OneSparse {
 public:
  /// Shape from public coins: index space [0, universe), fingerprint base
  /// z ~ U(F_p). Equal (coins, tag, universe) give equal shapes.
  static OneSparse make(const model::PublicCoins& coins, std::uint64_t tag,
                        std::uint64_t universe);

  void add(std::uint64_t index, std::int64_t delta);
  void merge(const OneSparse& other);

  [[nodiscard]] DecodeResult decode() const;

  /// Serialize / deserialize state (not shape).
  void write(util::BitWriter& out) const;
  void read(util::BitReader& in);

  /// Exact state bits as written by write().
  [[nodiscard]] static std::size_t state_bits();

  [[nodiscard]] std::uint64_t universe() const noexcept { return universe_; }

 private:
  OneSparse() = default;

  std::uint64_t universe_ = 0;
  std::uint64_t z_ = 0;  // fingerprint base

  std::int64_t ell0_ = 0;    // sum of counts (exact, signed)
  std::uint64_t ell1_ = 0;   // sum of count*index mod p
  std::uint64_t fp_ = 0;     // fingerprint mod p
};

/// A summary's state is three words (ell0, ell1, fp), ell0 holding the
/// counter's two's-complement bits, in OneSparse::write's order.  These
/// act on any run of states, whatever shapes they belong to.
inline constexpr std::size_t kStateWords = 3;
void write_states(std::span<const std::uint64_t> states,
                  util::BitWriter& out);
void read_states(std::span<std::uint64_t> states, util::BitReader& in);
/// states += other, summary by summary (both of the same shapes).
void merge_states(std::span<std::uint64_t> states,
                  std::span<const std::uint64_t> other);

/// The shape of N OneSparse summaries over one universe, whose states
/// (N consecutive three-word states, slot order) the caller owns.
///
/// The shape — per-slot fingerprint bases z and their fixed-base power
/// tables — is immutable and derived only from (coins, tags, universe).
/// The power tables turn the per-update z^index into a product of
/// ceil(bit_width(universe-1)/8) table entries (windowed fixed-base
/// exponentiation) instead of a ~2*log2(index)-multiply square-and-chain
/// — the dominant saving of the encode hot path.  decode() takes the
/// fingerprint check's z^index from the same tables: it only checks an
/// index already known to be < universe, which the windows cover.  The
/// residue is the same field element either way, so every downstream bit
/// is unchanged.
class OneSparseBank {
 public:
  OneSparseBank() = default;

  /// One slot per tag; slot i's shape equals
  /// OneSparse::make(coins, tags[i], universe).
  static OneSparseBank make(const model::PublicCoins& coins,
                            std::span<const std::uint64_t> tags,
                            std::uint64_t universe);

  [[nodiscard]] std::size_t size() const noexcept { return slots_; }
  [[nodiscard]] std::uint64_t universe() const noexcept { return universe_; }
  [[nodiscard]] std::size_t state_words() const noexcept {
    return kStateWords * slots_;
  }
  [[nodiscard]] std::size_t state_bits() const noexcept {
    return slots_ * OneSparse::state_bits();
  }

  void add(std::span<std::uint64_t> state, std::size_t slot,
           std::uint64_t index, std::int64_t delta) const;

  /// Add (index, delta) to every slot in [0, upto] — the L0 sampler's
  /// nested-subsampling walk.  The shared ell1 term is computed once;
  /// only the per-slot fingerprint power differs.
  void add_prefix(std::span<std::uint64_t> state, std::size_t upto,
                  std::uint64_t index, std::int64_t delta) const;

  [[nodiscard]] DecodeResult decode(std::span<const std::uint64_t> state,
                                    std::size_t slot) const;

 private:
  /// z[slot]^index mod p via the windowed tables.
  [[nodiscard]] std::uint64_t z_pow(std::size_t slot,
                                    std::uint64_t index) const noexcept;

  std::uint64_t universe_ = 0;
  std::size_t slots_ = 0;
  unsigned windows_ = 1;
  /// Fixed-base tables: for slot s and window w < windows_,
  /// pow_[(s * windows_ + w) * 256 + j] = z[s]^(j << (8w)) mod p.
  std::vector<std::uint64_t> pow_;
};

}  // namespace ds::sketch
