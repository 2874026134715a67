// The sketch frame: the canonical on-the-wire form of one model message.
//
// A frame carries exactly one util::BitString — a player's sketch going up
// to the referee, or a referee broadcast/result coming back down — plus
// enough header to route and verify it:
//
//   magic      1 byte   0xD5
//   version    1 byte   kWireVersion
//   type       varint   FrameType
//   protocol   varint   protocol_id (FNV-1a over the protocol's name())
//   vertex     varint   sender's vertex id; 0 for referee frames
//   round      varint   adaptive round index; 0 for one-round protocols
//   bits       varint   payload length in BITS (exact, not byte-rounded)
//   payload    ceil(bits/8) bytes, bit i of the BitString in byte i/8 at
//              bit position i%8 (LSB first); final-byte padding must be 0
//   crc32      4 bytes LE, over every preceding byte including the magic
//
// Frames are self-delimiting: the header says exactly how many payload
// bytes follow, so a batch of frames can be concatenated into one
// transport message and peeled off one at a time.
//
// Allocation (docs/WIRE.md): encode_frame writes a frame straight into the
// caller's batch, which grows once per frame at most and only by its own
// geometric growth.  Decoding is split in two.  parse_frame checks a
// frame in place and allocates nothing; it yields the header and a view
// of the payload bytes.  A payload becomes a BitString only when the
// caller keeps it (FrameView::copy_payload), in one exact-size word
// buffer.  So nothing is allocated before the CRC check, and nothing from
// a declared length alone.  FrameWalker walks a whole message this way.
//
// Accounting contract (docs/WIRE.md): `payload bits` is the model cost —
// it must match util::BitWriter::bit_count() and hence CommStats bit for
// bit.  Everything else (header, byte-rounding padding, CRC) is framing
// overhead, tracked separately and never charged to the model.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/bitio.h"
#include "wire/bytes.h"

namespace ds::wire {

inline constexpr std::uint8_t kFrameMagic = 0xD5;
inline constexpr std::uint8_t kWireVersion = 1;

/// Largest payload a decoder will accept: 1 GiB of sketch bits.  A corrupt
/// or hostile length varint must not drive a huge allocation.
inline constexpr std::uint64_t kMaxPayloadBits = std::uint64_t{1} << 33;

enum class FrameType : std::uint8_t {
  kSketch = 1,     // player -> referee: one vertex's sketch for a round
  kBroadcast = 2,  // referee -> players: adaptive inter-round broadcast
  kResult = 3,     // referee -> players: the protocol's decoded output
};

struct FrameHeader {
  FrameType type = FrameType::kSketch;
  std::uint32_t protocol_id = 0;
  std::uint32_t vertex = 0;
  std::uint32_t round = 0;

  friend bool operator==(const FrameHeader&, const FrameHeader&) = default;
};

struct Frame {
  FrameHeader header;
  util::BitString payload;
};

enum class DecodeStatus : std::uint8_t {
  kOk,
  kNeedMoreData,  // the buffer ends mid-frame (short read; not an error
                  // for stream transports — wait for more bytes)
  kBadMagic,      // first byte is not kFrameMagic
  kBadVersion,
  kMalformed,     // varint overlong/oversized field, or nonzero padding
  kBadCrc,
};

[[nodiscard]] std::string_view decode_status_name(DecodeStatus s) noexcept;

/// Stable 32-bit id for a protocol name (FNV-1a).  Both sides derive it
/// from SketchingProtocol::name(), so a player running the wrong protocol
/// is rejected at the frame level.
[[nodiscard]] std::uint32_t protocol_id(std::string_view name) noexcept;

/// Serialize one frame, appending it to `out` in place.  Returns the
/// number of framing bits added (total frame bits minus
/// payload.bit_count()).
std::size_t encode_frame(const FrameHeader& header,
                         const util::BitString& payload,
                         std::vector<std::uint8_t>& out);

/// Exact encoded size in bytes of a frame with this header and payload.
[[nodiscard]] std::size_t encoded_frame_size(
    const FrameHeader& header, std::size_t payload_bits) noexcept;

/// A frame checked in place: its header and a view of its payload bytes
/// inside the buffer it was parsed from, which must outlive the view.
struct FrameView {
  FrameHeader header;
  std::size_t payload_bits = 0;
  std::span<const std::uint8_t> payload;  // ceil(payload_bits / 8) bytes

  /// The payload as a BitString, in one exact-size word buffer.
  [[nodiscard]] util::BitString copy_payload() const;
};

/// Parse one frame from the front of `bytes`, checking magic, version,
/// varint bounds, field ranges, kMaxPayloadBits, zero padding and CRC, and
/// allocating nothing.  On kOk, `frame` holds the result and `consumed` the
/// frame's byte length; on kNeedMoreData nothing is consumed; on any
/// error, `consumed` is the number of bytes to skip (>= 1) so a
/// resynchronizing caller can make progress.
[[nodiscard]] DecodeStatus parse_frame(std::span<const std::uint8_t> bytes,
                                       FrameView& frame,
                                       std::size_t& consumed);

/// parse_frame, then copy the payload: one frame, kept.
[[nodiscard]] DecodeStatus decode_frame(std::span<const std::uint8_t> bytes,
                                        Frame& frame, std::size_t& consumed);

/// Walks a message of concatenated frames front to back, one parse_frame
/// each, and stops at the first frame that fails to parse.  A trailing
/// partial frame stops it with kNeedMoreData.
class FrameWalker {
 public:
  explicit FrameWalker(std::span<const std::uint8_t> message) noexcept
      : message_(message) {}

  /// Parse the next frame into `frame`; false at the end of the message
  /// or at the first damage (status() then says which).
  [[nodiscard]] bool next(FrameView& frame);

  /// kOk unless a frame failed to parse; then why.
  [[nodiscard]] DecodeStatus status() const noexcept { return status_; }

  /// Offset of the first byte not parsed yet: the damaged frame's first
  /// byte once the walk has failed.
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

 private:
  std::span<const std::uint8_t> message_;
  std::size_t offset_ = 0;
  DecodeStatus status_ = DecodeStatus::kOk;
};

}  // namespace ds::wire
