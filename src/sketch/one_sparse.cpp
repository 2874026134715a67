#include "sketch/one_sparse.h"

#include <bit>
#include <cassert>

namespace ds::sketch {

namespace {

constexpr std::uint64_t kP = util::kDefaultPrime;
constexpr unsigned kFieldBits = 61;  // kDefaultPrime = 2^61 - 1
constexpr unsigned kCounterBits = 64;

/// Map a signed count into F_p.
std::uint64_t to_field(std::int64_t v) {
  if (v >= 0) return static_cast<std::uint64_t>(v) % kP;
  return util::sub_mod(0, static_cast<std::uint64_t>(-v) % kP, kP);
}

/// Draw the fingerprint base for (coins, tag) — the shape contract shared
/// by OneSparse and OneSparseBank slots.
std::uint64_t draw_z(const model::PublicCoins& coins, std::uint64_t tag) {
  util::Rng rng =
      coins.stream(model::coin_tag(model::CoinTag::kFingerprint, tag));
  return 1 + rng.next_below(kP - 1);  // z in [1, p)
}

/// Shared decode over one slot's state.  `z_pow(index)` returns z^index
/// mod p; it is only asked for an index already checked to lie in
/// [0, universe), the range the bank's power tables cover.
template <typename ZPow>
DecodeResult decode_state(std::uint64_t universe, std::int64_t ell0,
                          std::uint64_t ell1, std::uint64_t fp,
                          const ZPow& z_pow) {
  if (ell0 == 0 && ell1 == 0 && fp == 0) {
    return {DecodeStatus::kZero, {}};
  }
  const std::uint64_t c = to_field(ell0);
  if (c == 0) return {DecodeStatus::kFail, {}};  // cancelling counts

  // Candidate index = ell1 / ell0 in F_p.
  const std::uint64_t index = util::mul_mod(ell1, util::inv_mod(c, kP), kP);
  if (index >= universe) return {DecodeStatus::kFail, {}};

  // Fingerprint check: fp must equal ell0 * z^index.
  const std::uint64_t expected = util::mul_mod(c, z_pow(index), kP);
  if (expected != fp) return {DecodeStatus::kFail, {}};
  return {DecodeStatus::kOne, {index, ell0}};
}

}  // namespace

OneSparse OneSparse::make(const model::PublicCoins& coins, std::uint64_t tag,
                          std::uint64_t universe) {
  assert(universe > 0 && universe < kP);
  OneSparse s;
  s.universe_ = universe;
  s.z_ = draw_z(coins, tag);
  return s;
}

void OneSparse::add(std::uint64_t index, std::int64_t delta) {
  assert(index < universe_);
  if (delta == 0) return;
  const std::uint64_t d = to_field(delta);
  ell0_ += delta;
  ell1_ = util::add_mod(ell1_, util::mul_mod(d, index % kP, kP), kP);
  fp_ = util::add_mod(fp_, util::mul_mod(d, util::pow_mod(z_, index, kP), kP),
                      kP);
}

void OneSparse::merge(const OneSparse& other) {
  assert(universe_ == other.universe_ && z_ == other.z_ &&
         "sketches with different shapes cannot merge");
  ell0_ += other.ell0_;
  ell1_ = util::add_mod(ell1_, other.ell1_, kP);
  fp_ = util::add_mod(fp_, other.fp_, kP);
}

DecodeResult OneSparse::decode() const {
  return decode_state(universe_, ell0_, ell1_, fp_, [this](std::uint64_t i) {
    return util::pow_mod(z_, i, kP);
  });
}

void OneSparse::write(util::BitWriter& out) const {
  out.put_bits(static_cast<std::uint64_t>(ell0_), kCounterBits);
  out.put_bits(ell1_, kFieldBits);
  out.put_bits(fp_, kFieldBits);
}

void OneSparse::read(util::BitReader& in) {
  ell0_ = static_cast<std::int64_t>(in.get_bits(kCounterBits));
  ell1_ = in.get_bits(kFieldBits);
  fp_ = in.get_bits(kFieldBits);
}

std::size_t OneSparse::state_bits() { return kCounterBits + 2 * kFieldBits; }

OneSparseBank OneSparseBank::make(const model::PublicCoins& coins,
                                  std::span<const std::uint64_t> tags,
                                  std::uint64_t universe) {
  assert(universe > 0 && universe < kP);
  OneSparseBank bank;
  bank.universe_ = universe;
  bank.slots_ = tags.size();
  bank.data_.assign(3 * bank.slots_, 0);

  auto shape = std::make_shared<Shape>();
  shape->z.reserve(bank.slots_);
  for (std::uint64_t tag : tags) shape->z.push_back(draw_z(coins, tag));
  // Fixed-base windowed tables over the exponent range actually used:
  // add() exponents are indices < universe, so ceil(bits/8) 8-bit windows
  // cover every z^index ever computed.
  const unsigned bits =
      universe > 1 ? static_cast<unsigned>(std::bit_width(universe - 1)) : 1;
  shape->windows = (bits + 7) / 8;
  shape->pow.assign(static_cast<std::size_t>(bank.slots_) * shape->windows *
                        256,
                    0);
  for (std::size_t s = 0; s < bank.slots_; ++s) {
    std::uint64_t base = shape->z[s];  // z^(1 << 8w) at window w
    std::uint64_t* table = shape->pow.data() + s * shape->windows * 256;
    for (unsigned w = 0; w < shape->windows; ++w, table += 256) {
      table[0] = 1;
      for (unsigned j = 1; j < 256; ++j) {
        table[j] = util::mul_mod(table[j - 1], base, kP);
      }
      base = util::mul_mod(table[255], base, kP);
    }
  }
  bank.shape_ = std::move(shape);
  return bank;
}

std::uint64_t OneSparseBank::z_pow(std::size_t slot,
                                   std::uint64_t index) const noexcept {
  const Shape& shape = *shape_;
  const std::uint64_t* table = shape.pow.data() + slot * shape.windows * 256;
  std::uint64_t r = table[index & 255];
  for (unsigned w = 1; w < shape.windows; ++w) {
    table += 256;
    const std::uint64_t chunk = (index >> (8 * w)) & 255;
    if (chunk != 0) r = util::mul_mod(r, table[chunk], kP);
  }
  return r;
}

void OneSparseBank::add(std::size_t slot, std::uint64_t index,
                        std::int64_t delta) {
  assert(slot < slots_);
  assert(index < universe_);
  if (delta == 0) return;
  const std::uint64_t d = to_field(delta);
  ell0()[slot] += static_cast<std::uint64_t>(delta);  // two's-complement sum
  ell1()[slot] =
      util::add_mod(ell1()[slot], util::mul_mod(d, index % kP, kP), kP);
  fp()[slot] = util::add_mod(
      fp()[slot], util::mul_mod(d, z_pow(slot, index), kP), kP);
}

void OneSparseBank::add_prefix(std::size_t upto, std::uint64_t index,
                               std::int64_t delta) {
  assert(upto < slots_);
  assert(index < universe_);
  if (delta == 0) return;
  const std::uint64_t d = to_field(delta);
  const std::uint64_t delta_raw = static_cast<std::uint64_t>(delta);
  const std::uint64_t ell1_term = util::mul_mod(d, index % kP, kP);
  std::uint64_t* e0 = ell0();
  std::uint64_t* e1 = ell1();
  std::uint64_t* f = fp();
  for (std::size_t l = 0; l <= upto; ++l) {
    e0[l] += delta_raw;
    e1[l] = util::add_mod(e1[l], ell1_term, kP);
    f[l] = util::add_mod(f[l], util::mul_mod(d, z_pow(l, index), kP), kP);
  }
}

void OneSparseBank::merge(const OneSparseBank& other) {
  assert(universe_ == other.universe_ && slots_ == other.slots_);
  std::uint64_t* e0 = ell0();
  std::uint64_t* e1 = ell1();
  std::uint64_t* f = fp();
  const std::uint64_t* o0 = other.ell0();
  const std::uint64_t* o1 = other.ell1();
  const std::uint64_t* of = other.fp();
  for (std::size_t i = 0; i < slots_; ++i) {
    assert(z(i) == other.z(i) &&
           "sketches with different shapes cannot merge");
    e0[i] += o0[i];
    e1[i] = util::add_mod(e1[i], o1[i], kP);
    f[i] = util::add_mod(f[i], of[i], kP);
  }
}

DecodeResult OneSparseBank::decode(std::size_t slot) const {
  assert(slot < slots_);
  return decode_state(
      universe_, static_cast<std::int64_t>(ell0()[slot]), ell1()[slot],
      fp()[slot], [this, slot](std::uint64_t i) { return z_pow(slot, i); });
}

void OneSparseBank::prefetch() const noexcept {
  constexpr std::size_t kWordsPerLine = 64 / sizeof(std::uint64_t);
  for (std::size_t i = 0; i < data_.size(); i += kWordsPerLine) {
    __builtin_prefetch(data_.data() + i);
  }
}

void OneSparseBank::write(util::BitWriter& out) const {
  out.reserve_bits(out.bit_count() + state_bits());
  const std::uint64_t* e0 = ell0();
  const std::uint64_t* e1 = ell1();
  const std::uint64_t* f = fp();
  for (std::size_t i = 0; i < slots_; ++i) {
    out.put_bits(e0[i], kCounterBits);
    out.put_bits(e1[i], kFieldBits);
    out.put_bits(f[i], kFieldBits);
  }
}

void OneSparseBank::read(util::BitReader& in) {
  std::uint64_t* e0 = ell0();
  std::uint64_t* e1 = ell1();
  std::uint64_t* f = fp();
  for (std::size_t i = 0; i < slots_; ++i) {
    e0[i] = in.get_bits(kCounterBits);
    e1[i] = in.get_bits(kFieldBits);
    f[i] = in.get_bits(kFieldBits);
  }
}

}  // namespace ds::sketch
