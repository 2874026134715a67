// Bit-exact message encoding.
//
// The communication cost of a sketching protocol is the worst-case length
// in *bits* of any player's message (Section 2.1 of the paper).  To keep
// that accounting honest, every sketch in this codebase is produced through
// a BitWriter and consumed through a BitReader: the harness charges exactly
// the number of bits written, not a byte- or word-rounded figure.
//
// Supported encodings:
//   * raw bits / fixed-width unsigned integers (LSB first),
//   * Elias gamma codes for unbounded positive integers,
//   * length-prefixed spans of fixed-width values,
//   * zero runs and packed word spans (whole-64-bit-word fast paths).
//
// Hot-path contract (docs/ENGINE.md "hot path" section): the primitive
// put/get operations are inline and word-granular — an aligned cursor
// copies whole 64-bit words, an unaligned cursor takes one branch-light
// shift-pair step — and every fast path is bit-identical to a bit-at-a-
// time reference (tests/util/bitio_differential_test.cpp fuzzes random
// schedules through both).  Width boundaries are exact: width 0 writes or
// reads nothing, width 64 is fully supported (masks are computed as
// ~0 >> (64 - width), never 1 << width, so no shift-by-64 UB), and runs
// crossing word boundaries spill into the next word at any alignment
// (tests/util/bitio_boundary_test.cpp pins all of widths {0,1,63,64} x
// alignments 0..63).
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace ds::util {

namespace detail {

/// All-ones in the low `width` bits; width must be in [1, 64] (the shift
/// count 64 - width stays in [0, 63], so width == 64 is well-defined —
/// the 1 << width formulation would be UB exactly there).
[[nodiscard]] constexpr std::uint64_t width_mask(unsigned width) noexcept {
  return ~std::uint64_t{0} >> (64u - width);
}

}  // namespace detail

/// Append-only bit buffer.
///
/// A writer can adopt previously-used word storage (keeping its heap
/// capacity) and release it again when the finished message is moved into
/// a BitString — the engine's sketch arena pools buffers this way so the
/// hot encode loop stops allocating per vertex (docs/ENGINE.md).
class BitWriter {
 public:
  BitWriter() = default;

  /// Adopt `storage` as the backing buffer: contents are discarded, heap
  /// capacity is kept, and the writer starts empty.
  explicit BitWriter(std::vector<std::uint64_t>&& storage) noexcept
      : words_(std::move(storage)) {
    words_.clear();
  }

  /// Discard all written bits but keep the allocated capacity.
  void clear() noexcept {
    words_.clear();
    bit_count_ = 0;
  }

  /// Move the word storage out (exactly ceil(bit_count()/64) entries),
  /// leaving the writer empty.  Capture bit_count() first if needed.
  [[nodiscard]] std::vector<std::uint64_t> take_words() noexcept {
    std::vector<std::uint64_t> out = std::move(words_);
    words_.clear();
    bit_count_ = 0;
    return out;
  }

  /// Pre-size the backing storage for an eventual total of `total_bits`
  /// bits (absolute, not incremental).  Purely a capacity hint: the
  /// written words and bit_count() are unaffected.
  void reserve_bits(std::size_t total_bits) {
    words_.reserve((total_bits + 63) >> 6);
  }

  void put_bit(bool bit) { put_bits(bit ? 1u : 0u, 1); }

  /// Write the low `width` bits of `value`, LSB first. width in [0, 64].
  void put_bits(std::uint64_t value, unsigned width) {
    assert(width <= 64);
    if (width == 0) return;
    value &= detail::width_mask(width);
    const unsigned offset = static_cast<unsigned>(bit_count_ & 63);
    if (offset == 0) {
      // Aligned: the value starts a fresh word.
      words_.push_back(value);
    } else {
      // Unaligned shift pair: low part into the open word, spill the rest.
      words_.back() |= value << offset;
      if (offset + width > 64) words_.push_back(value >> (64u - offset));
    }
    bit_count_ += width;
  }

  /// Append `count` zero bits.  Zero bits never disturb the open word, so
  /// this is a single resize regardless of alignment.
  void put_zeros(std::size_t count) {
    bit_count_ += count;
    words_.resize((bit_count_ + 63) >> 6, 0);
  }

  /// Append the low `nbits` bits of a packed LSB-first word buffer
  /// (requires nbits <= 64 * src.size(); bits of src beyond nbits are
  /// ignored).  Aligned cursors copy whole words; unaligned cursors take
  /// the shift-pair path per word.
  void put_words(std::span<const std::uint64_t> src, std::size_t nbits);

  /// Elias gamma code of `value` (requires value >= 1): unary length then
  /// binary remainder; 2*floor(log2 v) + 1 bits.
  void put_gamma(std::uint64_t value);

  /// Gamma-coded length followed by `width`-bit elements.
  void put_u32_span(std::span<const std::uint32_t> values, unsigned width);

  [[nodiscard]] std::size_t bit_count() const noexcept { return bit_count_; }
  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept {
    return words_;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t bit_count_ = 0;
};

/// A finished, immutable message together with its exact bit length.
class BitString {
 public:
  BitString() = default;
  explicit BitString(const BitWriter& writer)
      : words_(writer.words()), bit_count_(writer.bit_count()) {}

  /// Steal the writer's storage instead of copying it; the writer is left
  /// empty.  Equality against a copy-constructed BitString is unaffected
  /// (vector operator== ignores capacity).
  explicit BitString(BitWriter&& writer) noexcept {
    bit_count_ = writer.bit_count();
    words_ = writer.take_words();
  }

  /// Adopt raw word storage with an explicit bit length; `words` must hold
  /// exactly ceil(bit_count/64) entries with unused high bits zero.
  BitString(std::vector<std::uint64_t>&& words,
            std::size_t bit_count) noexcept
      : words_(std::move(words)), bit_count_(bit_count) {}

  /// Move the word storage back out (for buffer pooling); the BitString
  /// becomes empty.
  [[nodiscard]] std::vector<std::uint64_t> release_words() noexcept {
    std::vector<std::uint64_t> out = std::move(words_);
    words_.clear();
    bit_count_ = 0;
    return out;
  }

  [[nodiscard]] std::size_t bit_count() const noexcept { return bit_count_; }
  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept {
    return words_;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t bit_count_ = 0;
};

/// Sequential decoder over a BitString. Reading past the end is a
/// programming error and asserts in debug builds; in release it returns
/// zero bits (protocol decoders must therefore length-check via
/// `bits_remaining` when messages are adversarially truncated).
class BitReader {
 public:
  explicit BitReader(const BitString& bits) noexcept
      : words_(bits.words()), bit_count_(bits.bit_count()) {}
  // The reader holds a span into the BitString; a temporary would dangle.
  explicit BitReader(BitString&&) = delete;

  [[nodiscard]] bool get_bit() { return get_bits(1) != 0; }

  [[nodiscard]] std::uint64_t get_bits(unsigned width) {
    assert(width <= 64);
    if (width == 0) return 0;
    assert(pos_ + width <= bit_count_);
    if (pos_ + width > bit_count_) return 0;
    const std::size_t word_index = pos_ >> 6;
    const unsigned offset = static_cast<unsigned>(pos_ & 63);
    std::uint64_t value = words_[word_index] >> offset;
    // Unaligned reads spanning a boundary pull the high part from the
    // next word (which exists: pos_ + width <= bit_count_ bounds it).
    if (offset + width > 64) value |= words_[word_index + 1] << (64u - offset);
    value &= detail::width_mask(width);
    pos_ += width;
    return value;
  }

  /// Read `nbits` bits into a packed LSB-first word buffer (the inverse
  /// of BitWriter::put_words; requires nbits <= 64 * out.size()).  Unused
  /// high bits of the last touched word are zeroed; words beyond the last
  /// touched one are left untouched.
  void get_words(std::span<std::uint64_t> out, std::size_t nbits);

  [[nodiscard]] std::uint64_t get_gamma();

  /// The gamma-coded length put_u32_span writes, clamped to the elements
  /// of `width` bits the remaining bits can hold: a garbage count must
  /// not drive allocation or a long loop.  A zero-width element takes no
  /// bits, so at width 0 the clamp is the remaining bits themselves.  The
  /// elements follow.
  [[nodiscard]] std::uint64_t get_span_length(unsigned width);
  [[nodiscard]] std::vector<std::uint32_t> get_u32_span(unsigned width);

  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] std::size_t bits_remaining() const noexcept {
    return bit_count_ - pos_;
  }

 private:
  std::span<const std::uint64_t> words_;
  std::size_t bit_count_ = 0;
  std::size_t pos_ = 0;
};

/// Number of bits needed to write values in [0, n) with put_bits, i.e.
/// ceil(log2 n); 0 for n <= 1.  Exact at powers of two: values in
/// [0, 2^k) need k bits, while writing the value 2^k itself (i.e. n =
/// 2^k + 1) needs k + 1 (tests/util/bitio_boundary_test.cpp pins the
/// 2^k +- 1 ladder up to 2^63).
[[nodiscard]] unsigned bit_width_for(std::uint64_t n) noexcept;

}  // namespace ds::util
