// Differential fuzzing of the word-at-a-time bitio fast paths (ISSUE 9
// satellite): a test-local bit-at-a-time reference implementation runs
// the same random put/get schedule as the production BitWriter/BitReader,
// and the two must agree on every word, the exact bit count, and every
// decoded value.  The CI asan/ubsan job runs this suite, so any
// out-of-bounds word access or shift UB in the fast paths trips there.
#include "util/bitio.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace ds::util {
namespace {

/// Reference writer: one bool per bit.  No fast paths, no shared code
/// with the production BitWriter beyond the encoding definitions.
class RefWriter {
 public:
  void put_bit(bool b) { bits_.push_back(b); }

  void put_bits(std::uint64_t value, unsigned width) {
    for (unsigned i = 0; i < width; ++i) put_bit((value >> i) & 1);
  }

  void put_zeros(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) put_bit(false);
  }

  void put_words(std::span<const std::uint64_t> src, std::size_t nbits) {
    for (std::size_t i = 0; i < nbits; ++i) {
      put_bit((src[i / 64] >> (i % 64)) & 1);
    }
  }

  void put_gamma(std::uint64_t value) {
    unsigned len = 0;
    while ((value >> len) > 1) ++len;  // floor(log2 value)
    for (unsigned i = 0; i < len; ++i) put_bit(false);
    put_bit(true);
    put_bits(value & ~(std::uint64_t{1} << len), len);
  }

  void put_u32_span(std::span<const std::uint32_t> values, unsigned width) {
    put_gamma(values.size() + 1);
    for (std::uint32_t v : values) put_bits(v, width);
  }

  [[nodiscard]] std::size_t bit_count() const { return bits_.size(); }

  /// Packed LSB-first words, exactly how BitWriter::words() lays them out.
  [[nodiscard]] std::vector<std::uint64_t> words() const {
    std::vector<std::uint64_t> out((bits_.size() + 63) / 64, 0);
    for (std::size_t i = 0; i < bits_.size(); ++i) {
      if (bits_[i]) out[i / 64] |= std::uint64_t{1} << (i % 64);
    }
    return out;
  }

 private:
  std::vector<bool> bits_;
};

// One schedule step; the arrays below drive writer and reference in
// lockstep so both see identical operations and operands.
struct Op {
  enum Kind { kBit, kBits, kZeros, kWords, kGamma, kU32Span } kind;
  std::uint64_t value = 0;
  unsigned width = 0;
  std::size_t count = 0;
  std::vector<std::uint64_t> words;
  std::vector<std::uint32_t> u32s;
};

std::vector<Op> random_schedule(Rng& rng, std::size_t steps) {
  std::vector<Op> ops;
  ops.reserve(steps);
  for (std::size_t s = 0; s < steps; ++s) {
    Op op;
    op.kind = static_cast<Op::Kind>(rng.next_below(6));
    switch (op.kind) {
      case Op::kBit:
        op.value = rng.next_below(2);
        break;
      case Op::kBits:
        op.width = static_cast<unsigned>(rng.next_below(65));  // 0..64
        op.value = rng.next();
        break;
      case Op::kZeros:
        op.count = rng.next_below(130);
        break;
      case Op::kWords: {
        const std::size_t nwords = 1 + rng.next_below(4);
        for (std::size_t i = 0; i < nwords; ++i) op.words.push_back(rng.next());
        op.count = rng.next_below(64 * nwords + 1);
        break;
      }
      case Op::kGamma:
        op.value = 1 + rng.next_below(1u << 20);
        break;
      case Op::kU32Span: {
        op.width = static_cast<unsigned>(rng.next_below(33));  // 0..32
        const std::size_t len = rng.next_below(9);
        const std::uint64_t limit =
            op.width == 0 ? 1 : (std::uint64_t{1} << op.width);
        for (std::size_t i = 0; i < len; ++i) {
          op.u32s.push_back(static_cast<std::uint32_t>(rng.next_below(limit)));
        }
        break;
      }
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

template <typename Writer>
void apply(Writer& w, const Op& op) {
  switch (op.kind) {
    case Op::kBit:
      w.put_bit(op.value != 0);
      break;
    case Op::kBits:
      w.put_bits(op.value, op.width);
      break;
    case Op::kZeros:
      w.put_zeros(op.count);
      break;
    case Op::kWords:
      w.put_words(op.words, op.count);
      break;
    case Op::kGamma:
      w.put_gamma(op.value);
      break;
    case Op::kU32Span:
      w.put_u32_span(op.u32s, op.width);
      break;
  }
}

TEST(BitIoDifferential, RandomSchedulesMatchReference) {
  Rng seed_rng(0xD1FFD1FF);
  for (int round = 0; round < 50; ++round) {
    Rng rng(seed_rng.next());
    const std::vector<Op> ops = random_schedule(rng, 1 + rng.next_below(60));

    BitWriter prod;
    RefWriter ref;
    for (const Op& op : ops) {
      apply(prod, op);
      apply(ref, op);
      // The writer invariant must hold after EVERY operation, not just at
      // the end: exactly ceil(bit_count/64) backing words.
      ASSERT_EQ(prod.words().size(), (prod.bit_count() + 63) / 64)
          << "round " << round;
    }
    ASSERT_EQ(prod.bit_count(), ref.bit_count()) << "round " << round;
    ASSERT_EQ(prod.words(), ref.words()) << "round " << round;

    // Decode side: the production reader must hand back each operation's
    // payload exactly.
    BitString bs(prod);
    BitReader r(bs);
    for (const Op& op : ops) {
      switch (op.kind) {
        case Op::kBit:
          ASSERT_EQ(r.get_bit(), op.value != 0);
          break;
        case Op::kBits: {
          const std::uint64_t expect =
              op.width == 0
                  ? 0
                  : op.value & (~std::uint64_t{0} >> (64 - op.width));
          ASSERT_EQ(r.get_bits(op.width), expect) << "round " << round;
          break;
        }
        case Op::kZeros:
          for (std::size_t i = 0; i < op.count; ++i) ASSERT_FALSE(r.get_bit());
          break;
        case Op::kWords: {
          std::vector<std::uint64_t> out(op.words.size(), ~std::uint64_t{0});
          r.get_words(out, op.count);
          for (std::size_t i = 0; i < op.count; ++i) {
            ASSERT_EQ((out[i / 64] >> (i % 64)) & 1,
                      (op.words[i / 64] >> (i % 64)) & 1)
                << "round " << round << " bit " << i;
          }
          break;
        }
        case Op::kGamma:
          ASSERT_EQ(r.get_gamma(), op.value) << "round " << round;
          break;
        case Op::kU32Span: {
          // get_span_length's clamp: zero-width elements take no bits, so
          // a zero-width span keeps at most as many as bits follow it.
          std::vector<std::uint32_t> want = op.u32s;
          if (op.width == 0) {
            const std::size_t gamma_bits =
                2 * (std::bit_width(want.size() + 1) - 1) + 1;
            want.resize(std::min(want.size(), r.bits_remaining() - gamma_bits));
          }
          ASSERT_EQ(r.get_u32_span(op.width), want) << "round " << round;
          break;
        }
      }
    }
    ASSERT_EQ(r.bits_remaining(), 0u) << "round " << round;
  }
}

TEST(BitIoDifferential, U32SpanMatchesElementwisePuts) {
  // put_u32_span's word-at-a-time accumulator vs one put_bits per value.
  Rng rng(0x5AA5);
  for (unsigned width = 0; width <= 32; ++width) {
    std::vector<std::uint32_t> values;
    const std::uint64_t limit = width == 0 ? 1 : (std::uint64_t{1} << width);
    for (int i = 0; i < 37; ++i) {
      values.push_back(static_cast<std::uint32_t>(rng.next_below(limit)));
    }
    BitWriter batched;
    batched.put_u32_span(values, width);
    BitWriter scalar;
    scalar.put_gamma(values.size() + 1);
    for (std::uint32_t v : values) scalar.put_bits(v, width);
    ASSERT_EQ(batched.bit_count(), scalar.bit_count()) << "width " << width;
    ASSERT_EQ(batched.words(), scalar.words()) << "width " << width;
  }
}

}  // namespace
}  // namespace ds::util
