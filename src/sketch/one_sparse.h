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
// Two containers share the arithmetic:
//   * OneSparse — a single standalone summary.
//   * OneSparseBank — N summaries in one structure-of-arrays buffer (all
//     z values, then all counters, then all ell1, then all fp, in one
//     contiguous allocation).  The L0 sampler's level table and the
//     s-sparse cell grid are banks, so the encode/decode hot path walks
//     contiguous memory and a bank copy is a single allocation
//     (docs/ENGINE.md "hot path").  Slot i of a bank built from tag t_i
//     is bit-identical in shape and state to OneSparse::make(coins, t_i,
//     universe) fed the same updates — pinned by
//     tests/sketch/one_sparse_test.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
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

/// Structure-of-arrays bank of OneSparse summaries over one universe.
///
/// The bank separates *shape* from *state*.  Shape — the per-slot
/// fingerprint bases z and their fixed-base power tables — is immutable,
/// derived only from (coins, tags, universe), and held by shared_ptr: a
/// bank copy shares it, so copying a cached sketch template copies only
/// state.  State is one allocation laid out
/// [ ell0[0..N) | ell1[0..N) | fp[0..N) ]; ell0 is stored as the
/// two's-complement bit pattern of the signed counter (exactly the bits
/// write() emits).
///
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

  void add(std::size_t slot, std::uint64_t index, std::int64_t delta);

  /// Add (index, delta) to every slot in [0, upto] — the L0 sampler's
  /// nested-subsampling walk.  The shared ell1 term is computed once;
  /// only the per-slot fingerprint power differs.
  void add_prefix(std::size_t upto, std::uint64_t index, std::int64_t delta);

  void merge(const OneSparseBank& other);

  [[nodiscard]] DecodeResult decode(std::size_t slot) const;

  /// Ask the CPU to start loading the state words.  A hint only: it
  /// changes no value, and lets a referee walking many banks overlap the
  /// next bank's cache misses with work on the current one.
  void prefetch() const noexcept;

  /// Serialize / deserialize every slot's state in slot order (identical
  /// bit stream to calling OneSparse::write per slot).
  void write(util::BitWriter& out) const;
  void read(util::BitReader& in);

  [[nodiscard]] std::size_t state_bits() const noexcept {
    return slots_ * OneSparse::state_bits();
  }

 private:
  /// Immutable per-shape data, shared between copies of a bank.
  struct Shape {
    std::vector<std::uint64_t> z;  // slots_ fingerprint bases
    /// Fixed-base tables: for slot s and window w < windows,
    /// pow[(s * windows + w) * 256 + j] = z[s]^(j << (8w)) mod p.
    std::vector<std::uint64_t> pow;
    unsigned windows = 1;
  };

  [[nodiscard]] std::uint64_t z(std::size_t i) const noexcept {
    return shape_->z[i];
  }
  /// z[slot]^index mod p via the windowed tables.
  [[nodiscard]] std::uint64_t z_pow(std::size_t slot,
                                    std::uint64_t index) const noexcept;
  [[nodiscard]] std::uint64_t* ell0() noexcept { return data_.data(); }
  [[nodiscard]] const std::uint64_t* ell0() const noexcept {
    return data_.data();
  }
  [[nodiscard]] std::uint64_t* ell1() noexcept {
    return data_.data() + slots_;
  }
  [[nodiscard]] const std::uint64_t* ell1() const noexcept {
    return data_.data() + slots_;
  }
  [[nodiscard]] std::uint64_t* fp() noexcept {
    return data_.data() + 2 * slots_;
  }
  [[nodiscard]] const std::uint64_t* fp() const noexcept {
    return data_.data() + 2 * slots_;
  }

  std::uint64_t universe_ = 0;
  std::size_t slots_ = 0;
  std::shared_ptr<const Shape> shape_;
  std::vector<std::uint64_t> data_;  // 3 * slots_ words of state
};

}  // namespace ds::sketch
