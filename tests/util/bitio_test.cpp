#include "util/bitio.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace ds::util {
namespace {

TEST(BitIo, EmptyWriter) {
  BitWriter w;
  EXPECT_EQ(w.bit_count(), 0u);
  BitString s(w);
  EXPECT_EQ(s.bit_count(), 0u);
}

TEST(BitIo, SingleBits) {
  BitWriter w;
  const bool pattern[] = {true, false, true, true, false, false, true};
  for (bool b : pattern) w.put_bit(b);
  EXPECT_EQ(w.bit_count(), 7u);
  BitString s(w);
  BitReader r(s);
  for (bool b : pattern) EXPECT_EQ(r.get_bit(), b);
  EXPECT_EQ(r.bits_remaining(), 0u);
}

TEST(BitIo, FixedWidthRoundTrip) {
  BitWriter w;
  w.put_bits(0b1011, 4);
  w.put_bits(0xDEADBEEF, 32);
  w.put_bits(0, 0);  // zero-width write is a no-op
  w.put_bits(1, 1);
  EXPECT_EQ(w.bit_count(), 37u);
  BitString bs(w);
  BitReader r(bs);
  EXPECT_EQ(r.get_bits(4), 0b1011u);
  EXPECT_EQ(r.get_bits(32), 0xDEADBEEFu);
  EXPECT_EQ(r.get_bits(0), 0u);
  EXPECT_EQ(r.get_bits(1), 1u);
}

TEST(BitIo, MasksHighBits) {
  BitWriter w;
  w.put_bits(0xFF, 4);  // only low 4 bits should land
  BitString bs(w);
  BitReader r(bs);
  EXPECT_EQ(r.get_bits(4), 0xFu);
  EXPECT_EQ(w.bit_count(), 4u);
}

TEST(BitIo, WordBoundarySpill) {
  BitWriter w;
  w.put_bits(0x1, 60);
  w.put_bits(0xABCD, 16);  // crosses the 64-bit word boundary
  BitString bs(w);
  BitReader r(bs);
  EXPECT_EQ(r.get_bits(60), 0x1u);
  EXPECT_EQ(r.get_bits(16), 0xABCDu);
}

TEST(BitIo, Full64BitValues) {
  BitWriter w;
  w.put_bits(0xFFFFFFFFFFFFFFFFULL, 64);
  w.put_bits(0x123456789ABCDEF0ULL, 64);
  BitString bs(w);
  BitReader r(bs);
  EXPECT_EQ(r.get_bits(64), 0xFFFFFFFFFFFFFFFFULL);
  EXPECT_EQ(r.get_bits(64), 0x123456789ABCDEF0ULL);
}

TEST(BitIo, GammaRoundTrip) {
  BitWriter w;
  for (std::uint64_t v = 1; v <= 100; ++v) w.put_gamma(v);
  w.put_gamma(1ULL << 40);
  BitString bs(w);
  BitReader r(bs);
  for (std::uint64_t v = 1; v <= 100; ++v) EXPECT_EQ(r.get_gamma(), v);
  EXPECT_EQ(r.get_gamma(), 1ULL << 40);
}

TEST(BitIo, GammaLengths) {
  // gamma(v) takes 2*floor(log2 v) + 1 bits.
  for (std::uint64_t v : {1ULL, 2ULL, 3ULL, 4ULL, 7ULL, 8ULL, 1000ULL}) {
    BitWriter w;
    w.put_gamma(v);
    unsigned log2v = 0;
    while ((v >> (log2v + 1)) != 0) ++log2v;
    EXPECT_EQ(w.bit_count(), 2 * log2v + 1) << "v=" << v;
  }
}

TEST(BitIo, SpanRoundTrip) {
  BitWriter w;
  const std::vector<std::uint32_t> values{3, 1, 4, 1, 5, 9, 2, 6};
  w.put_u32_span(values, 5);
  BitString bs(w);
  BitReader r(bs);
  EXPECT_EQ(r.get_u32_span(5), values);
}

TEST(BitIo, EmptySpanRoundTrip) {
  BitWriter w;
  w.put_u32_span({}, 10);
  BitString bs(w);
  BitReader r(bs);
  EXPECT_TRUE(r.get_u32_span(10).empty());
}

TEST(BitIo, MixedStreamFuzz) {
  Rng rng(2024);
  for (int rep = 0; rep < 50; ++rep) {
    BitWriter w;
    struct Item {
      int kind;
      std::uint64_t value;
      unsigned width;
    };
    std::vector<Item> items;
    for (int i = 0; i < 100; ++i) {
      Item item;
      item.kind = static_cast<int>(rng.next_below(2));
      switch (item.kind) {
        case 0:
          item.width = 1 + static_cast<unsigned>(rng.next_below(64));
          item.value = rng.next() &
                       (item.width == 64
                            ? ~0ULL
                            : ((std::uint64_t{1} << item.width) - 1));
          w.put_bits(item.value, item.width);
          break;
        default:
          item.value = 1 + rng.next_below(1ULL << 32);
          w.put_gamma(item.value);
      }
      items.push_back(item);
    }
    BitString bs(w);
  BitReader r(bs);
    for (const Item& item : items) {
      switch (item.kind) {
        case 0:
          EXPECT_EQ(r.get_bits(item.width), item.value);
          break;
        default:
          EXPECT_EQ(r.get_gamma(), item.value);
      }
    }
    EXPECT_EQ(r.bits_remaining(), 0u);
  }
}

TEST(BitWidthFor, Values) {
  EXPECT_EQ(bit_width_for(0), 0u);
  EXPECT_EQ(bit_width_for(1), 0u);
  EXPECT_EQ(bit_width_for(2), 1u);
  EXPECT_EQ(bit_width_for(3), 2u);
  EXPECT_EQ(bit_width_for(4), 2u);
  EXPECT_EQ(bit_width_for(5), 3u);
  EXPECT_EQ(bit_width_for(1024), 10u);
  EXPECT_EQ(bit_width_for(1025), 11u);
}

}  // namespace
}  // namespace ds::util
