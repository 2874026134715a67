// Property-style round-trip coverage for util::BitWriter / BitReader
// (ISSUE 3 satellite): the wire codec serializes payloads byte-by-byte
// and reassembles them through put_bits, so the non-byte-aligned and
// word-boundary-straddling paths must be exact — every written field must
// read back identically, at every alignment, with bit_count charged
// exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/bitio.h"
#include "util/rng.h"

namespace ds {
namespace {

// One randomly generated operation against the bit stream.
struct Op {
  enum class Kind : std::uint8_t { kBits, kGamma, kSpan } kind;
  std::uint64_t value = 0;
  unsigned width = 0;                // kBits only
  std::vector<std::uint32_t> span;   // kSpan only
  unsigned span_width = 0;           // kSpan only
};

Op random_op(util::Rng& rng) {
  Op op;
  switch (rng.next_below(3)) {
    case 0: {
      op.kind = Op::Kind::kBits;
      // Widths 0..64 inclusive, deliberately hitting 1, 63, 64.
      op.width = static_cast<unsigned>(rng.next_below(65));
      op.value = rng.next();
      if (op.width < 64) op.value &= (std::uint64_t{1} << op.width) - 1;
      break;
    }
    case 1:
      op.kind = Op::Kind::kGamma;
      op.value = 1 + rng.next_below(1u << 20);
      break;
    default: {
      op.kind = Op::Kind::kSpan;
      op.span_width = static_cast<unsigned>(1 + rng.next_below(32));
      const std::size_t len = rng.next_below(9);
      for (std::size_t i = 0; i < len; ++i) {
        std::uint64_t v = rng.next();
        if (op.span_width < 64) v &= (std::uint64_t{1} << op.span_width) - 1;
        op.span.push_back(static_cast<std::uint32_t>(v));
      }
      break;
    }
  }
  return op;
}

std::size_t op_bits(const Op& op) {
  util::BitWriter w;
  switch (op.kind) {
    case Op::Kind::kBits: w.put_bits(op.value, op.width); break;
    case Op::Kind::kGamma: w.put_gamma(op.value); break;
    case Op::Kind::kSpan: w.put_u32_span(op.span, op.span_width); break;
  }
  return w.bit_count();
}

TEST(BitIoRoundTrip, RandomOperationSequencesAreExact) {
  util::Rng rng(0xB17C0DE);
  for (int trial = 0; trial < 200; ++trial) {
    // A misalignment prefix of 0..66 single bits guarantees every op in
    // the sequence starts at an arbitrary bit offset, including offsets
    // straddling the 64-bit word boundary.
    const std::size_t prefix = rng.next_below(67);
    std::vector<bool> prefix_bits;
    for (std::size_t i = 0; i < prefix; ++i) {
      prefix_bits.push_back(rng.next_below(2) == 1);
    }
    std::vector<Op> ops;
    const std::size_t num_ops = 1 + rng.next_below(24);
    for (std::size_t i = 0; i < num_ops; ++i) ops.push_back(random_op(rng));

    util::BitWriter writer;
    std::size_t expected_bits = 0;
    for (const bool b : prefix_bits) writer.put_bit(b);
    expected_bits += prefix_bits.size();
    for (const Op& op : ops) {
      switch (op.kind) {
        case Op::Kind::kBits: writer.put_bits(op.value, op.width); break;
        case Op::Kind::kGamma: writer.put_gamma(op.value); break;
        case Op::Kind::kSpan:
          writer.put_u32_span(op.span, op.span_width);
          break;
      }
      expected_bits += op_bits(op);
    }
    // Exact charging: the total is the sum of the parts.
    ASSERT_EQ(writer.bit_count(), expected_bits);

    const util::BitString message(writer);
    util::BitReader reader(message);
    for (const bool b : prefix_bits) ASSERT_EQ(reader.get_bit(), b);
    for (const Op& op : ops) {
      switch (op.kind) {
        case Op::Kind::kBits:
          ASSERT_EQ(reader.get_bits(op.width), op.value);
          break;
        case Op::Kind::kGamma:
          ASSERT_EQ(reader.get_gamma(), op.value);
          break;
        case Op::Kind::kSpan: {
          const std::vector<std::uint32_t> got =
              reader.get_u32_span(op.span_width);
          ASSERT_EQ(got, op.span);
          break;
        }
      }
    }
    ASSERT_EQ(reader.bits_remaining(), 0u);
  }
}

TEST(BitIoRoundTrip, WordBoundaryStraddles) {
  // Place a 64-bit field at every offset in [1, 64): each one straddles
  // the word boundary a different way.
  for (unsigned offset = 1; offset < 64; ++offset) {
    util::BitWriter w;
    w.put_bits(0x5A5A5A5A5A5A5A5Au, offset);
    const std::uint64_t value = 0x0123456789ABCDEFu;
    w.put_bits(value, 64);
    w.put_bits(1, 1);
    ASSERT_EQ(w.bit_count(), offset + 65u);

    const util::BitString s(w);
    util::BitReader r(s);
    (void)r.get_bits(offset);
    ASSERT_EQ(r.get_bits(64), value) << "offset " << offset;
    ASSERT_EQ(r.get_bit(), true);
  }
}

TEST(BitIoRoundTrip, NonByteAlignedPayloadLengths) {
  // Every total length mod 8 in [0, 8); the wire codec zero-pads the
  // final byte, so the writer's trailing partial word must be clean.
  for (std::size_t bits = 1; bits <= 130; ++bits) {
    util::BitWriter w;
    util::Rng rng(bits);
    std::vector<bool> expect;
    for (std::size_t i = 0; i < bits; ++i) {
      const bool b = rng.next_below(2) == 1;
      expect.push_back(b);
      w.put_bit(b);
    }
    ASSERT_EQ(w.bit_count(), bits);
    const util::BitString s(w);
    // No hidden payload beyond bit_count: unused high bits of the final
    // word are zero (the frame codec relies on this for padding checks).
    if (bits % 64 != 0) {
      const std::uint64_t last = s.words().back();
      ASSERT_EQ(last >> (bits % 64), 0u) << bits;
    }
    util::BitReader r(s);
    for (std::size_t i = 0; i < bits; ++i) {
      ASSERT_EQ(r.get_bit(), expect[i]);
    }
  }
}

}  // namespace
}  // namespace ds
