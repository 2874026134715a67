// The frame codec: exact round-trips, bytes pinned field by field,
// self-delimiting batches walked in place, the payload-vs-framing
// accounting split, and rejection of every corruption class (bad magic,
// bad version, overlong varints, nonzero padding, CRC mismatch,
// truncation).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/rng.h"
#include "wire/bytes.h"
#include "wire/frame.h"

namespace ds {
namespace {

using wire::DecodeStatus;
using wire::Frame;
using wire::FrameHeader;
using wire::FrameType;

util::BitString random_payload(util::Rng& rng, std::size_t bits) {
  util::BitWriter w;
  for (std::size_t done = 0; done < bits;) {
    const unsigned chunk =
        static_cast<unsigned>(std::min<std::size_t>(64, bits - done));
    std::uint64_t v = rng.next();
    if (chunk < 64) v &= (std::uint64_t{1} << chunk) - 1;
    w.put_bits(v, chunk);
    done += chunk;
  }
  return util::BitString(w);
}

bool same_bits(const util::BitString& a, const util::BitString& b) {
  return a.bit_count() == b.bit_count() && a.words() == b.words();
}

/// A message walked to its end or its first damage, every payload kept.
struct Walked {
  std::vector<Frame> frames;
  DecodeStatus status = DecodeStatus::kOk;
  std::size_t offset = 0;  // first byte not parsed
};

Walked walk(std::span<const std::uint8_t> message) {
  wire::FrameWalker walker(message);
  wire::FrameView view;
  Walked out;
  while (walker.next(view)) {
    out.frames.push_back({view.header, view.copy_payload()});
  }
  out.status = walker.status();
  out.offset = walker.offset();
  return out;
}

TEST(Varint, RoundTripsAndSizes) {
  const std::uint64_t cases[] = {0,   1,    127,        128,
                                 300, 1u << 20, 0xFFFFFFFFu,
                                 std::uint64_t(-1)};
  for (const std::uint64_t v : cases) {
    std::vector<std::uint8_t> bytes;
    wire::ByteWriter w(bytes);
    w.put_varint(v);
    EXPECT_EQ(bytes.size(), wire::varint_size(v));
    wire::ByteReader r(bytes);
    const auto got = r.get_varint();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, v);
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(Varint, RejectsOverlongEncodings) {
  // 11 continuation bytes: more than any u64 needs.
  const std::vector<std::uint8_t> overlong(11, 0x80);
  wire::ByteReader r(overlong);
  EXPECT_FALSE(r.get_varint().has_value());

  // 10th byte carrying more than the final value bit.
  const std::vector<std::uint8_t> toobig{0x80, 0x80, 0x80, 0x80, 0x80,
                                         0x80, 0x80, 0x80, 0x80, 0x02};
  wire::ByteReader r2(toobig);
  EXPECT_FALSE(r2.get_varint().has_value());
}

TEST(Crc32, KnownVector) {
  // CRC-32/IEEE of "123456789" is the classic check value 0xCBF43926.
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(wire::crc32(data), 0xCBF43926u);
}

TEST(FrameCodec, RoundTripsEveryPayloadAlignment) {
  util::Rng rng(42);
  for (std::size_t bits = 0; bits <= 140; ++bits) {
    const util::BitString payload = random_payload(rng, bits);
    const FrameHeader header{FrameType::kSketch, wire::protocol_id("x"),
                             static_cast<std::uint32_t>(bits), 3};
    std::vector<std::uint8_t> bytes;
    const std::size_t framing = wire::encode_frame(header, payload, bytes);
    EXPECT_EQ(bytes.size(), wire::encoded_frame_size(header, bits));
    EXPECT_EQ(framing, bytes.size() * 8 - bits);

    Frame frame;
    std::size_t consumed = 0;
    ASSERT_EQ(wire::decode_frame(bytes, frame, consumed), DecodeStatus::kOk)
        << bits;
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ(frame.header, header);
    EXPECT_TRUE(same_bits(frame.payload, payload)) << bits;
  }
}

TEST(FrameCodec, PayloadBitsAreChargedExactly) {
  // The accounting contract: payload bits on the wire == BitWriter
  // bit_count, independent of byte rounding; framing is everything else.
  util::BitWriter w;
  w.put_bits(0b101, 3);
  const util::BitString payload(w);
  const FrameHeader header{FrameType::kSketch, 1, 2, 0};
  std::vector<std::uint8_t> bytes;
  const std::size_t framing = wire::encode_frame(header, payload, bytes);
  EXPECT_EQ(bytes.size() * 8, framing + 3u);

  Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::decode_frame(bytes, frame, consumed), DecodeStatus::kOk);
  EXPECT_EQ(frame.payload.bit_count(), 3u);
}

TEST(FrameCodec, BatchOfFramesIsSelfDelimiting) {
  util::Rng rng(7);
  std::vector<std::uint8_t> bytes;
  std::vector<util::BitString> payloads;
  for (std::uint32_t v = 0; v < 9; ++v) {
    payloads.push_back(random_payload(rng, 5 + 13 * v));
    wire::encode_frame({FrameType::kSketch, 99, v, 0}, payloads.back(),
                       bytes);
  }
  const Walked batch = walk(bytes);
  ASSERT_EQ(batch.status, DecodeStatus::kOk);
  ASSERT_EQ(batch.offset, bytes.size());
  ASSERT_EQ(batch.frames.size(), 9u);
  for (std::uint32_t v = 0; v < 9; ++v) {
    EXPECT_EQ(batch.frames[v].header.vertex, v);
    EXPECT_TRUE(same_bits(batch.frames[v].payload, payloads[v]));
  }
}

TEST(FrameCodec, DetectsEveryFlippedBit) {
  // CRC-32 catches all single-bit flips; flip each bit of a whole frame
  // and demand rejection (kBadCrc, or an earlier structural error when
  // the flip hits magic/version/header fields).
  util::Rng rng(11);
  const util::BitString payload = random_payload(rng, 37);
  std::vector<std::uint8_t> bytes;
  wire::encode_frame({FrameType::kSketch, 5, 6, 7}, payload, bytes);
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    Frame frame;
    std::size_t consumed = 0;
    const DecodeStatus status =
        wire::decode_frame(corrupt, frame, consumed);
    EXPECT_NE(status, DecodeStatus::kOk) << "flipped bit " << bit;
  }
}

TEST(FrameCodec, ShortReadsWantMoreData) {
  util::Rng rng(13);
  const util::BitString payload = random_payload(rng, 64);
  std::vector<std::uint8_t> bytes;
  wire::encode_frame({FrameType::kBroadcast, 1, 0, 2}, payload, bytes);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    Frame frame;
    std::size_t consumed = 0;
    const DecodeStatus status = wire::decode_frame(
        std::span<const std::uint8_t>(bytes).subspan(0, len), frame,
        consumed);
    EXPECT_EQ(status, DecodeStatus::kNeedMoreData) << "prefix " << len;
  }
}

TEST(FrameCodec, RejectsNonzeroPaddingBits) {
  // 3 payload bits leave 5 padding bits in the payload byte; setting any
  // of them is information the accounting never charged -> malformed.
  util::BitWriter w;
  w.put_bits(0b111, 3);
  std::vector<std::uint8_t> bytes;
  wire::encode_frame({FrameType::kSketch, 1, 2, 0}, util::BitString(w),
                     bytes);
  // Payload byte is the 4th from the end (CRC is last 4).
  const std::size_t payload_index = bytes.size() - 5;
  bytes[payload_index] |= 0x20;
  // Re-stamp a valid CRC so ONLY the padding rule can reject it.
  const std::uint32_t crc =
      wire::crc32({bytes.data(), bytes.size() - 4});
  for (unsigned i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(wire::decode_frame(bytes, frame, consumed),
            DecodeStatus::kMalformed);
}

TEST(FrameCodec, RejectsBadMagicAndVersion) {
  std::vector<std::uint8_t> bytes;
  wire::encode_frame({FrameType::kSketch, 1, 2, 0}, util::BitString{},
                     bytes);
  {
    std::vector<std::uint8_t> bad = bytes;
    bad[0] = 0x00;
    Frame frame;
    std::size_t consumed = 0;
    EXPECT_EQ(wire::decode_frame(bad, frame, consumed),
              DecodeStatus::kBadMagic);
    EXPECT_EQ(consumed, 1u);  // resync skips one byte
  }
  {
    std::vector<std::uint8_t> bad = bytes;
    bad[1] = wire::kWireVersion + 1;
    Frame frame;
    std::size_t consumed = 0;
    EXPECT_EQ(wire::decode_frame(bad, frame, consumed),
              DecodeStatus::kBadVersion);
  }
}

TEST(FrameCodec, RejectsOversizedPayloadLengthWithoutAllocating) {
  // Hand-build a frame claiming an absurd payload length; the decoder
  // must refuse at the header, long before any allocation.
  std::vector<std::uint8_t> bytes;
  wire::ByteWriter w(bytes);
  w.put_u8(wire::kFrameMagic);
  w.put_u8(wire::kWireVersion);
  w.put_varint(static_cast<std::uint64_t>(FrameType::kSketch));
  w.put_varint(1);
  w.put_varint(2);
  w.put_varint(0);
  w.put_varint(wire::kMaxPayloadBits + 1);
  Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(wire::decode_frame(bytes, frame, consumed),
            DecodeStatus::kMalformed);
}

TEST(FrameCodec, BatchStopsAtCorruptionAndKeepsEarlierFrames) {
  util::Rng rng(17);
  std::vector<std::uint8_t> bytes;
  wire::encode_frame({FrameType::kSketch, 9, 0, 0},
                     random_payload(rng, 21), bytes);
  const std::size_t first_len = bytes.size();
  wire::encode_frame({FrameType::kSketch, 9, 1, 0},
                     random_payload(rng, 21), bytes);
  bytes[first_len + 10] ^= 0xFF;  // corrupt the second frame
  const Walked batch = walk(bytes);
  EXPECT_EQ(batch.frames.size(), 1u);
  EXPECT_NE(batch.status, DecodeStatus::kOk);
  EXPECT_EQ(batch.offset, first_len);
}

/// Bits [0, bits) of a fixed byte pattern, rotated per word and salted.
util::BitString pattern_payload(std::size_t bits, unsigned salt) {
  util::BitWriter w;
  std::uint64_t word = 0x0F1E2D3C4B5A6978ull ^ (0x0101010101010101ull * salt);
  for (std::size_t done = 0; done < bits; done += 64) {
    w.put_bits(word, static_cast<unsigned>(
                         std::min<std::size_t>(64, bits - done)));
    word = std::rotl(word, 8);
  }
  return util::BitString(std::move(w));
}

/// Bytes from hex pairs; spaces and '|' (field separators) are skipped.
std::vector<std::uint8_t> from_hex(std::string_view hex) {
  std::vector<std::uint8_t> bytes;
  const auto nibble = [](char c) {
    return static_cast<std::uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  };
  for (std::size_t i = 0; i < hex.size(); ++i) {
    if (hex[i] == ' ' || hex[i] == '|') continue;
    bytes.push_back(static_cast<std::uint8_t>(nibble(hex[i]) << 4 |
                                              nibble(hex[i + 1])));
    ++i;
  }
  return bytes;
}

TEST(FrameCodec, BatchEncodesToPinnedBytes) {
  // Every varint width boundary in every header field, and payloads on
  // both sides of the byte and word boundaries, against bytes captured
  // from the codec before it wrote frames in place.  Fields read:
  // magic version | type | protocol | vertex | round | bits | payload |
  // crc32 (little-endian).
  constexpr std::uint32_t kEdges[] = {0, 127, 128, 16383, 16384,
                                      0xFFFFFFFFu};
  constexpr std::size_t kBits[] = {0, 1, 7, 8, 63, 64, 65, 130};
  constexpr FrameType kTypes[] = {FrameType::kSketch, FrameType::kBroadcast,
                                  FrameType::kResult};
  constexpr std::string_view kPinned[] = {
      "d5 01 | 01 | 00 | 80 01 | 80 80 01 | 00 | | 34 99 c4 b7",
      "d5 01 | 02 | 7f | ff 7f | ff ff ff ff 0f | 01 | 01 | 50 25 dc 44",
      "d5 01 | 03 | 80 01 | 80 80 01 | 00 | 07 | 7a | 4a e1 f7 de",
      "d5 01 | 01 | ff 7f | ff ff ff ff 0f | 7f | 08 | 7b | 59 92 d0 bd",
      "d5 01 | 02 | 80 80 01 | 00 | 80 01 | 3f |"
      " 7c 6d 5e 4f 38 29 1a 0b | 9a 9c 2e 18",
      "d5 01 | 03 | ff ff ff ff 0f | 7f | ff 7f | 40 |"
      " 7d 6c 5f 4e 39 28 1b 0a | d0 aa 67 b0",
      "d5 01 | 01 | 00 | 80 01 | 80 80 01 | 41 |"
      " 7e 6f 5c 4d 3a 2b 18 09 01 | 4f 1f b5 a5",
      "d5 01 | 02 | 7f | ff 7f | ff ff ff ff 0f | 82 01 |"
      " 7f 6e 5d 4c 3b 2a 19 08 08 7f 6e 5d 4c 3b 2a 19 01 | 03 00 16 ba",
  };

  std::vector<FrameHeader> headers;
  std::vector<util::BitString> payloads;
  std::vector<std::uint8_t> batch;
  std::vector<std::uint8_t> pinned;
  for (unsigned i = 0; i < std::size(kBits); ++i) {
    headers.push_back({kTypes[i % 3], kEdges[i % 6], kEdges[(i + 2) % 6],
                       kEdges[(i + 4) % 6]});
    payloads.push_back(pattern_payload(kBits[i], i));
    (void)wire::encode_frame(headers[i], payloads[i], batch);
    const std::vector<std::uint8_t> frame = from_hex(kPinned[i]);
    pinned.insert(pinned.end(), frame.begin(), frame.end());
  }
  EXPECT_EQ(batch, pinned);

  const Walked decoded = walk(pinned);
  ASSERT_EQ(decoded.status, DecodeStatus::kOk);
  ASSERT_EQ(decoded.frames.size(), std::size(kBits));
  for (std::size_t i = 0; i < std::size(kBits); ++i) {
    EXPECT_EQ(decoded.frames[i].header, headers[i]) << "frame " << i;
    EXPECT_TRUE(same_bits(decoded.frames[i].payload, payloads[i]))
        << "frame " << i;
    EXPECT_EQ(decoded.frames[i].payload.words().size(),
              (kBits[i] + 63) / 64)
        << "frame " << i;
  }
}

TEST(FrameCodec, ProtocolIdIsStableAndDiscriminating) {
  EXPECT_EQ(wire::protocol_id("agm-spanning-forest"),
            wire::protocol_id("agm-spanning-forest"));
  EXPECT_NE(wire::protocol_id("agm-spanning-forest"),
            wire::protocol_id("agm-connectivity"));
}

}  // namespace
}  // namespace ds
