#include "util/bitio.h"

#include <algorithm>
#include <bit>

namespace ds::util {

unsigned bit_width_for(std::uint64_t n) noexcept {
  if (n <= 1) return 0;
  return static_cast<unsigned>(std::bit_width(n - 1));
}

void BitWriter::put_words(std::span<const std::uint64_t> src,
                          std::size_t nbits) {
  assert(nbits <= src.size() * 64);
  const std::size_t full = nbits >> 6;
  const unsigned rem = static_cast<unsigned>(nbits & 63);
  reserve_bits(bit_count_ + nbits);
  if ((bit_count_ & 63) == 0) {
    // Aligned run: whole-word copy, no shifting at all.
    words_.insert(words_.end(), src.begin(),
                  src.begin() + static_cast<std::ptrdiff_t>(full));
    bit_count_ += full << 6;
  } else {
    // Unaligned: one shift-pair step per word (put_bits inlines to
    // exactly that; the offset stays constant across the run).
    for (std::size_t i = 0; i < full; ++i) put_bits(src[i], 64);
  }
  if (rem != 0) put_bits(src[full], rem);
}

void BitWriter::put_gamma(std::uint64_t value) {
  assert(value >= 1);
  const unsigned len = static_cast<unsigned>(std::bit_width(value));  // >= 1
  // len-1 zeros, then the value's bits from MSB down (we store the leading
  // 1 explicitly so the reader can detect the boundary).
  put_bits(0, len - 1);
  put_bit(true);
  if (len > 1) put_bits(value & detail::width_mask(len - 1), len - 1);
}

void BitWriter::put_u32_span(std::span<const std::uint32_t> values,
                             unsigned width) {
  put_gamma(values.size() + 1);  // +1: gamma cannot encode zero
  if (width == 0 || values.empty()) return;
  assert(width <= 64);
  reserve_bits(bit_count_ + values.size() * width);
  // Word-at-a-time: pack elements into a register-resident accumulator and
  // flush whole 64-bit words; only the final partial word takes the
  // narrow-width path.  Bit-identical to put_bits per element.
  const std::uint64_t mask = detail::width_mask(width);
  std::uint64_t acc = 0;
  unsigned acc_bits = 0;
  for (std::uint32_t v : values) {
    const std::uint64_t val = v & mask;
    acc |= val << acc_bits;
    const unsigned room = 64u - acc_bits;
    if (width >= room) {
      put_bits(acc, 64);
      acc = room < width ? val >> room : 0;
      acc_bits = width - room;
    } else {
      acc_bits += width;
    }
  }
  if (acc_bits > 0) put_bits(acc, acc_bits);
}

void BitReader::get_words(std::span<std::uint64_t> out, std::size_t nbits) {
  assert(nbits <= out.size() * 64);
  const std::size_t full = nbits >> 6;
  const unsigned rem = static_cast<unsigned>(nbits & 63);
  if ((pos_ & 63) == 0 && pos_ + nbits <= bit_count_) {
    // Aligned run: whole-word copy.
    const std::size_t word_index = pos_ >> 6;
    std::copy_n(words_.begin() + static_cast<std::ptrdiff_t>(word_index),
                full, out.begin());
    pos_ += full << 6;
  } else {
    for (std::size_t i = 0; i < full; ++i) out[i] = get_bits(64);
  }
  if (rem != 0) out[full] = get_bits(rem);
}

std::uint64_t BitReader::get_gamma() {
  unsigned zeros = 0;
  while (bits_remaining() > 0 && !get_bit()) ++zeros;
  // A truncated or adversarial stream can present >= 64 leading zeros;
  // clamp so the shift stays defined (the decoded value is garbage either
  // way, but must be garbage safely).
  if (zeros > 63) zeros = 63;
  std::uint64_t value = std::uint64_t{1} << zeros;
  if (zeros > 0) value |= get_bits(zeros);
  return value;
}

std::uint64_t BitReader::get_span_length(unsigned width) {
  const std::uint64_t count = get_gamma() - 1;
  // Robustness clamp: a well-formed message cannot contain more elements
  // than it has bits left.
  const std::uint64_t max_possible =
      width == 0 ? bits_remaining() : bits_remaining() / width;
  return std::min(count, max_possible);
}

std::vector<std::uint32_t> BitReader::get_u32_span(unsigned width) {
  const std::uint64_t count = get_span_length(width);
  std::vector<std::uint32_t> values;
  values.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i)
    values.push_back(static_cast<std::uint32_t>(get_bits(width)));
  return values;
}

}  // namespace ds::util
