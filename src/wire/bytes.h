// Byte-level primitives for the wire layer: a writer that appends to a
// borrowed byte buffer, a bounds-checked reader, LEB128 varints, and
// CRC-32.
//
// The sketching model's cost measure is bits (util/bitio); the wire layer
// moves those bits between real processes and therefore needs a byte
// vocabulary of its own.  Everything here is *framing* — it is charged to
// WireStats::framing_bits and never to the model's CommStats, so the
// paper-faithful accounting in model/protocol.h is untouched by transport
// concerns (see docs/WIRE.md for the accounting contract).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace ds::wire {

/// Appends bytes and varints to a caller-owned buffer.  The writer
/// borrows the buffer and only ever appends to it, so a frame is written
/// straight into the batch that carries it (wire/frame.h).
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) noexcept
      : out_(&out) {}

  void put_u8(std::uint8_t value) { out_->push_back(value); }

  /// Unsigned LEB128: 7 value bits per byte, high bit = continuation.
  void put_varint(std::uint64_t value);

  /// Fixed 32-bit little-endian (used for the CRC trailer).
  void put_u32_le(std::uint32_t value);

  void put_bytes(std::span<const std::uint8_t> bytes);

 private:
  std::vector<std::uint8_t>* out_;
};

/// Sequential decoder over a byte span.  All getters return nullopt on
/// truncation instead of asserting: wire input is adversarial by
/// definition and must never crash the referee.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) noexcept
      : bytes_(bytes) {}

  [[nodiscard]] std::optional<std::uint8_t> get_u8();

  /// Unsigned LEB128; rejects encodings longer than 10 bytes or with
  /// value bits beyond 64.
  [[nodiscard]] std::optional<std::uint64_t> get_varint();

  [[nodiscard]] std::optional<std::uint32_t> get_u32_le();

  /// View of the next `count` bytes, advancing past them.
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> get_bytes(
      std::size_t count);

  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// Number of bytes put_varint uses for `value` (1..10).
[[nodiscard]] std::size_t varint_size(std::uint64_t value) noexcept;

/// CRC-32 (IEEE 802.3 polynomial, reflected), the checksum in every frame
/// trailer.  Implemented locally so the wire layer adds no dependencies.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                                  std::uint32_t seed = 0) noexcept;

}  // namespace ds::wire
