// Wire-session vocabulary shared by the referee service and the player
// client: separated byte accounting, the round collector every referee
// shard drives, and the failure type.
//
// Allocation: the collector and await_referee_frame walk a message frame
// by frame in place (wire::FrameWalker) and copy out only the payloads
// they keep, one exact-size buffer each; a rejected or corrupt frame
// allocates nothing but its reject detail.
//
// Accounting contract (docs/WIRE.md): WireStats::payload_bits counts
// exactly the bits the model charges — BitWriter::bit_count() of each
// sketch or broadcast — and must match model::CommStats bit for bit (the
// audit cross-check in tests/audit/wire_audit_test.cpp enforces this for
// the whole protocol zoo).  framing_bits is everything else the frame
// codec adds (headers, byte-rounding padding, CRC); transport prefixes on
// top of that are visible via Link::bytes_sent/received.  The three
// layers never mix.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "model/protocol.h"
#include "util/bitio.h"
#include "wire/frame.h"
#include "wire/transport.h"

namespace ds::service {

/// A session that cannot complete: missing sketches at the round
/// deadline, a dead link, or a referee response that never arrived.
/// (Corrupt frames alone never raise this — they are rejected and
/// counted, and the sender may retransmit within the deadline.)
class ServiceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Frame-level byte accounting for one direction of a session.
struct WireStats {
  std::size_t frames = 0;
  std::size_t messages = 0;
  std::size_t payload_bits = 0;  // model bits, == CommStats totals
  std::size_t framing_bits = 0;  // header + padding + CRC, never model bits
  std::size_t rejected_frames = 0;

  [[nodiscard]] std::size_t wire_bits() const noexcept {
    return payload_bits + framing_bits;
  }
  void merge(const WireStats& other) noexcept {
    frames += other.frames;
    messages += other.messages;
    payload_bits += other.payload_bits;
    framing_bits += other.framing_bits;
    rejected_frames += other.rejected_frames;
  }
};

/// Why a player frame was rejected: the referee's one taxonomy, counted as
/// service.reject.<reject_reason_name(reason)>.
enum class RejectReason : std::uint8_t {
  kCorrupt,      // the message failed to decode; its rest is dropped
  kBadType,      // not a kSketch frame
  kBadProtocol,  // another protocol's frame
  kBadRound,     // another round's frame
  kBadVertex,    // vertex id >= n
  kDuplicate,    // a second sketch for an already-accepted vertex
};
inline constexpr std::size_t kRejectReasons = 6;

/// "corrupt", "bad_type", "bad_protocol", "bad_round", "bad_vertex",
/// "duplicate".
[[nodiscard]] std::string_view reject_reason_name(RejectReason r) noexcept;

struct Reject {
  RejectReason reason = RejectReason::kCorrupt;
  std::string detail;  // which frame, from which connection
};

/// One fully collected sketch round.
struct CollectedRound {
  std::vector<util::BitString> sketches;  // indexed by vertex, all present
  WireStats wire;
  std::vector<Reject> rejects;  // in arrival order: a damaged message's
                                // earlier frames before its kCorrupt
};

/// Contiguous vertex range [first, second) owned by shard `index` of
/// `parts`: the one split formula shared by player clients
/// (shard_vertices), referee shards, and the service tool, so every
/// party computes identical layouts without coordination.
[[nodiscard]] std::pair<graph::Vertex, graph::Vertex> shard_range(
    graph::Vertex n, std::size_t parts, std::size_t index) noexcept;

/// What a round accepts: exactly one kSketch frame of `protocol_id` and
/// `round` for each vertex in [0, n).
struct RoundSpec {
  graph::Vertex n = 0;
  std::uint32_t protocol_id = 0;
  std::uint32_t round = 0;
};

/// The round collector: the acceptance rule, the reject taxonomy, and the
/// round's close, in one place.  Each referee shard (service/shard.h)
/// feeds its own collector from its connections, and the combiner folds
/// them together with absorb().  Offering touches no shared state and no
/// metrics, so a shard's thread can drive its collector alone; finish()
/// records the combined round in the service.* metrics once.
class RoundCollector {
 public:
  RoundCollector() = default;
  explicit RoundCollector(const RoundSpec& spec);

  /// Walk one transport message and offer every frame in it, in order.
  /// A frame is accepted iff it is a kSketch frame of this spec's
  /// protocol and round, for a vertex below n that holds no sketch yet;
  /// only then is its payload copied out.  Anything else becomes a
  /// Reject, as does a message that fails to parse: its frames before the
  /// damage still count, and its kCorrupt reject follows theirs.  `from`
  /// and `from_index` label the sender in reject details ("shard 0 conn",
  /// 3).  Returns the frames accepted.
  std::size_t offer_message(std::span<const std::uint8_t> message,
                            std::string_view from, std::size_t from_index);

  /// Fold a sibling collector of the same spec into this one.  Vertices
  /// this collector holds keep their sketch; every copy `later` also holds
  /// becomes a kDuplicate reject naming `later_name`, just as if it had
  /// arrived here second.  Returns the number of such duplicates.
  std::size_t absorb(RoundCollector&& later, std::string_view later_name);

  [[nodiscard]] const RoundSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] bool complete() const noexcept {
    return accepted_ == spec_.n;
  }
  [[nodiscard]] bool has(graph::Vertex v) const noexcept {
    return v < have_.size() && have_[v];
  }

  /// Close the round and record it in the service.* metrics.  Throws
  /// ServiceError naming the missing vertex ranges if any vertex is still
  /// without a sketch; otherwise returns the round, its WireStats derived
  /// from the accepted sketches (payload and framing bits of exactly one
  /// frame per vertex) plus the messages and rejects seen.
  [[nodiscard]] CollectedRound finish() &&;

 private:
  void reject(RejectReason reason, std::string detail);

  RoundSpec spec_;
  std::vector<util::BitString> sketches_;
  std::vector<bool> have_;
  graph::Vertex accepted_ = 0;
  std::size_t messages_ = 0;
  std::vector<Reject> rejects_;
};

/// Append one sketch frame to a player's outgoing batch; returns framing
/// bits added.  `batch` is sent as a single Link message.
std::size_t append_sketch_frame(std::vector<std::uint8_t>& batch,
                                std::uint32_t protocol_id,
                                graph::Vertex vertex, std::uint32_t round,
                                const util::BitString& payload);

/// Player side: wait for the referee frame of `expected_type` for
/// `protocol_id` (skipping anything else), or throw ServiceError on
/// timeout / closed link / corrupt referee message.  A message that fails
/// to parse anywhere throws, even after a matching frame.
[[nodiscard]] wire::Frame await_referee_frame(
    wire::Link& link, wire::FrameType expected_type,
    std::uint32_t protocol_id, std::chrono::milliseconds timeout);

/// CommStats over one round of wire sketches, recorded in vertex order —
/// the exact sequence the simulated runner charges.
[[nodiscard]] model::CommStats comm_from_sketches(
    std::span<const util::BitString> sketches);

}  // namespace ds::service
