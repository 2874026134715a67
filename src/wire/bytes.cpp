#include "wire/bytes.h"

#include <array>

namespace ds::wire {

void ByteWriter::put_varint(std::uint64_t value) {
  while (value >= 0x80) {
    out_->push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out_->push_back(static_cast<std::uint8_t>(value));
}

void ByteWriter::put_u32_le(std::uint32_t value) {
  out_->push_back(static_cast<std::uint8_t>(value));
  out_->push_back(static_cast<std::uint8_t>(value >> 8));
  out_->push_back(static_cast<std::uint8_t>(value >> 16));
  out_->push_back(static_cast<std::uint8_t>(value >> 24));
}

void ByteWriter::put_bytes(std::span<const std::uint8_t> bytes) {
  out_->insert(out_->end(), bytes.begin(), bytes.end());
}

std::optional<std::uint8_t> ByteReader::get_u8() {
  if (pos_ >= bytes_.size()) return std::nullopt;
  return bytes_[pos_++];
}

std::optional<std::uint64_t> ByteReader::get_varint() {
  std::uint64_t value = 0;
  unsigned shift = 0;
  for (unsigned i = 0; i < 10; ++i) {
    const std::optional<std::uint8_t> byte = get_u8();
    if (!byte) return std::nullopt;
    const std::uint64_t payload = *byte & 0x7F;
    // The 10th byte may only contribute the final value bit (64 = 9*7 + 1).
    if (shift == 63 && payload > 1) return std::nullopt;
    value |= payload << shift;
    if ((*byte & 0x80) == 0) return value;
    shift += 7;
  }
  return std::nullopt;  // continuation bit set on the 10th byte
}

std::optional<std::uint32_t> ByteReader::get_u32_le() {
  if (remaining() < 4) return std::nullopt;
  std::uint32_t value = 0;
  for (unsigned i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(bytes_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return value;
}

std::optional<std::span<const std::uint8_t>> ByteReader::get_bytes(
    std::size_t count) {
  if (remaining() < count) return std::nullopt;
  const std::span<const std::uint8_t> view = bytes_.subspan(pos_, count);
  pos_ += count;
  return view;
}

std::size_t varint_size(std::uint64_t value) noexcept {
  std::size_t size = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++size;
  }
  return size;
}

namespace {

// Slice-by-8 CRC-32: table[0] is the classic byte-at-a-time table and
// the sole source of truth for the polynomial; table[k][b] extends a
// byte b by k additional zero bytes, letting the hot loop fold eight
// input bytes per iteration.  Same polynomial (0xEDB88320, reflected),
// same values as the old bytewise loop — sketch frames on disk and on
// the wire are unaffected.
std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() noexcept {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFF] ^ (prev >> 8);
    }
  }
  return tables;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                    std::uint32_t seed) noexcept {
  static const std::array<std::array<std::uint32_t, 256>, 8> tables =
      make_crc_tables();
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    const std::uint32_t low = crc ^ (static_cast<std::uint32_t>(bytes[i]) |
                                     static_cast<std::uint32_t>(bytes[i + 1])
                                         << 8 |
                                     static_cast<std::uint32_t>(bytes[i + 2])
                                         << 16 |
                                     static_cast<std::uint32_t>(bytes[i + 3])
                                         << 24);
    crc = tables[7][low & 0xFF] ^ tables[6][(low >> 8) & 0xFF] ^
          tables[5][(low >> 16) & 0xFF] ^ tables[4][low >> 24] ^
          tables[3][bytes[i + 4]] ^ tables[2][bytes[i + 5]] ^
          tables[1][bytes[i + 6]] ^ tables[0][bytes[i + 7]];
  }
  for (; i < bytes.size(); ++i) {
    crc = tables[0][(crc ^ bytes[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace ds::wire
