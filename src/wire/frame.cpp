#include "wire/frame.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace ds::wire {

std::string_view decode_status_name(DecodeStatus s) noexcept {
  switch (s) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kNeedMoreData: return "need-more-data";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kMalformed: return "malformed";
    case DecodeStatus::kBadCrc: return "bad-crc";
  }
  return "unknown";
}

std::uint32_t protocol_id(std::string_view name) noexcept {
  std::uint32_t h = 0x811C9DC5u;  // FNV-1a offset basis
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x01000193u;
  }
  return h;
}

namespace {

// Payload bytes and BitString words are the same memory on a
// little-endian host: byte i holds bits [8i, 8i+8) LSB first, the order
// BitWriter packs its 64-bit words.  Both directions copy them as bytes.
static_assert(std::endian::native == std::endian::little,
              "the payload copies assume a little-endian host");

constexpr std::size_t payload_byte_count(std::uint64_t bits) noexcept {
  return static_cast<std::size_t>((bits + 7) / 8);
}

}  // namespace

std::size_t encoded_frame_size(const FrameHeader& header,
                               std::size_t payload_bits) noexcept {
  return 2  // magic + version
         + varint_size(static_cast<std::uint64_t>(header.type)) +
         varint_size(header.protocol_id) + varint_size(header.vertex) +
         varint_size(header.round) + varint_size(payload_bits) +
         payload_byte_count(payload_bits) + 4;  // CRC trailer
}

std::size_t encode_frame(const FrameHeader& header,
                         const util::BitString& payload,
                         std::vector<std::uint8_t>& out) {
  const std::size_t payload_bits = payload.bit_count();
  assert(payload_bits <= kMaxPayloadBits);
  const std::size_t start = out.size();
  const std::size_t size = encoded_frame_size(header, payload_bits);
  // Grow the batch at most once for this frame, geometrically, so a batch
  // of frames costs only its own doubling.
  if (start + size > out.capacity()) {
    out.reserve(std::max(start + size, 2 * out.capacity()));
  }

  ByteWriter w(out);
  w.put_u8(kFrameMagic);
  w.put_u8(kWireVersion);
  w.put_varint(static_cast<std::uint64_t>(header.type));
  w.put_varint(header.protocol_id);
  w.put_varint(header.vertex);
  w.put_varint(header.round);
  w.put_varint(payload_bits);
  // The words' unused high bits are zero, so the final byte's padding is.
  w.put_bytes({reinterpret_cast<const std::uint8_t*>(payload.words().data()),
               payload_byte_count(payload_bits)});
  w.put_u32_le(crc32(std::span<const std::uint8_t>(out).subspan(start)));
  assert(out.size() == start + size);
  return size * 8 - payload_bits;
}

util::BitString FrameView::copy_payload() const {
  std::vector<std::uint64_t> words((payload_bits + 63) / 64);
  if (!payload.empty()) {
    std::memcpy(words.data(), payload.data(), payload.size());
  }
  return util::BitString(std::move(words), payload_bits);
}

DecodeStatus parse_frame(std::span<const std::uint8_t> bytes,
                         FrameView& frame, std::size_t& consumed) {
  consumed = 0;
  ByteReader r(bytes);

  const std::optional<std::uint8_t> magic = r.get_u8();
  if (!magic) return DecodeStatus::kNeedMoreData;
  if (*magic != kFrameMagic) {
    consumed = 1;
    return DecodeStatus::kBadMagic;
  }
  const std::optional<std::uint8_t> version = r.get_u8();
  if (!version) return DecodeStatus::kNeedMoreData;
  if (*version != kWireVersion) {
    consumed = 2;
    return DecodeStatus::kBadVersion;
  }

  // Header varints.  A truncated varint at end-of-buffer is a short read;
  // an overlong one mid-buffer is malformed.
  const auto read_field = [&](std::uint64_t& out_value,
                              DecodeStatus& status) {
    const std::optional<std::uint64_t> v = r.get_varint();
    if (v) {
      out_value = *v;
      return true;
    }
    status = r.remaining() == 0 ? DecodeStatus::kNeedMoreData
                                : DecodeStatus::kMalformed;
    consumed = status == DecodeStatus::kMalformed ? r.position() : 0;
    return false;
  };

  std::uint64_t type_raw = 0;
  std::uint64_t proto = 0;
  std::uint64_t vertex = 0;
  std::uint64_t round = 0;
  std::uint64_t payload_bits = 0;
  DecodeStatus status = DecodeStatus::kOk;
  if (!read_field(type_raw, status) || !read_field(proto, status) ||
      !read_field(vertex, status) || !read_field(round, status) ||
      !read_field(payload_bits, status)) {
    return status;
  }

  if (type_raw < static_cast<std::uint64_t>(FrameType::kSketch) ||
      type_raw > static_cast<std::uint64_t>(FrameType::kResult) ||
      proto > 0xFFFFFFFFu || vertex > 0xFFFFFFFFu || round > 0xFFFFFFFFu ||
      payload_bits > kMaxPayloadBits) {
    consumed = r.position();
    return DecodeStatus::kMalformed;
  }

  const std::size_t payload_bytes = payload_byte_count(payload_bits);
  const std::optional<std::span<const std::uint8_t>> payload =
      r.get_bytes(payload_bytes);
  if (!payload) return DecodeStatus::kNeedMoreData;

  // Nonzero padding bits in the final byte are corrupt: the frame would
  // carry information the bit accounting does not charge.
  if (const unsigned tail_bits = static_cast<unsigned>(payload_bits % 8);
      tail_bits != 0) {
    const std::uint8_t last = (*payload)[payload_bytes - 1];
    if ((last >> tail_bits) != 0) {
      consumed = r.position();
      return DecodeStatus::kMalformed;
    }
  }

  const std::size_t crc_start = r.position();
  const std::optional<std::uint32_t> stated_crc = r.get_u32_le();
  if (!stated_crc) return DecodeStatus::kNeedMoreData;
  const std::uint32_t actual_crc = crc32(bytes.subspan(0, crc_start));
  if (actual_crc != *stated_crc) {
    consumed = r.position();
    return DecodeStatus::kBadCrc;
  }

  frame.header.type = static_cast<FrameType>(type_raw);
  frame.header.protocol_id = static_cast<std::uint32_t>(proto);
  frame.header.vertex = static_cast<std::uint32_t>(vertex);
  frame.header.round = static_cast<std::uint32_t>(round);
  frame.payload_bits = static_cast<std::size_t>(payload_bits);
  frame.payload = *payload;
  consumed = r.position();
  return DecodeStatus::kOk;
}

DecodeStatus decode_frame(std::span<const std::uint8_t> bytes, Frame& frame,
                          std::size_t& consumed) {
  FrameView view;
  const DecodeStatus status = parse_frame(bytes, view, consumed);
  if (status == DecodeStatus::kOk) {
    frame.header = view.header;
    frame.payload = view.copy_payload();
  }
  return status;
}

bool FrameWalker::next(FrameView& frame) {
  if (status_ != DecodeStatus::kOk || offset_ == message_.size()) {
    return false;
  }
  std::size_t consumed = 0;
  status_ = parse_frame(message_.subspan(offset_), frame, consumed);
  if (status_ != DecodeStatus::kOk) return false;
  offset_ += consumed;
  return true;
}

}  // namespace ds::wire
