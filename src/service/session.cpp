#include "service/session.h"

#include <algorithm>
#include <array>
#include <optional>
#include <sstream>

#include "engine/charge.h"
#include "engine/instrumentation.h"
#include "obs/obs.h"

namespace ds::service {

namespace {

using Clock = std::chrono::steady_clock;

/// Missing-vertex ranges a deadline diagnostic lists before eliding.
constexpr std::size_t kListedRanges = 8;

/// Round counters and histograms, recorded once per round by
/// RoundCollector::finish.  The per-sketch `sketch_bits` histogram
/// mirrors the model accounting exactly: count == players, sum ==
/// CommStats::total_bits, max == CommStats::max_bits for a one-round
/// session (asserted by tests/audit/obs_audit_test.cpp).
struct ServiceMetrics {
  obs::Counter& rounds_collected =
      obs::counter("service.rounds_collected");
  obs::Counter& messages = obs::counter("service.messages");
  obs::Counter& frames_accepted = obs::counter("service.frames_accepted");
  obs::Counter& payload_bits = obs::counter("service.payload_bits");
  obs::Histogram& sketch_bits = obs::histogram("service.sketch_bits");
  obs::Histogram& round_payload_bits =
      obs::histogram("service.round_payload_bits");
  obs::Counter& deadline_misses = obs::counter("service.deadline_misses");
  // Rejected frames, indexed by RejectReason (sum ==
  // WireStats::rejected_frames).
  static_assert(static_cast<std::size_t>(RejectReason::kDuplicate) + 1 ==
                kRejectReasons);
  std::array<obs::Counter*, kRejectReasons> rejects{
      &obs::counter("service.reject.corrupt"),
      &obs::counter("service.reject.bad_type"),
      &obs::counter("service.reject.bad_protocol"),
      &obs::counter("service.reject.bad_round"),
      &obs::counter("service.reject.bad_vertex"),
      &obs::counter("service.reject.duplicate")};
};

ServiceMetrics& metrics() {
  static ServiceMetrics m;
  return m;
}

/// The acceptance rule: why frame `h` is unusable for `spec` given the
/// vertices already held, or nullopt to accept it.
std::optional<RejectReason> check_frame(const wire::FrameHeader& h,
                                        const RoundSpec& spec,
                                        const std::vector<bool>& have) {
  if (h.type != wire::FrameType::kSketch) return RejectReason::kBadType;
  if (h.protocol_id != spec.protocol_id) return RejectReason::kBadProtocol;
  if (h.round != spec.round) return RejectReason::kBadRound;
  if (h.vertex >= spec.n) return RejectReason::kBadVertex;
  if (have[h.vertex]) return RejectReason::kDuplicate;
  return std::nullopt;
}

std::string frame_detail(RejectReason why, const wire::FrameHeader& h,
                         const RoundSpec& spec) {
  const std::string v = std::to_string(h.vertex);
  switch (why) {
    case RejectReason::kBadType:
      return "unexpected frame type from a player";
    case RejectReason::kBadProtocol:
      return "protocol id mismatch from vertex " + v;
    case RejectReason::kBadRound:
      return "round " + std::to_string(h.round) + " frame from vertex " + v +
             " during round " + std::to_string(spec.round);
    case RejectReason::kBadVertex:
      return "vertex " + v + " out of range";
    case RejectReason::kDuplicate:
      return "duplicate sketch for vertex " + v;
    case RejectReason::kCorrupt:
      break;
  }
  return {};
}

/// "round 2: 5 sketch(es) missing at the deadline (vertices 3-6, 9);
/// 1 frame(s) rejected" — the missing vertices as inclusive ranges, the
/// first kListedRanges of them.
std::string missing_report(const RoundSpec& spec,
                           const std::vector<bool>& have,
                           graph::Vertex accepted, std::size_t rejected) {
  std::ostringstream os;
  os << "round " << spec.round << ": " << spec.n - accepted
     << " sketch(es) missing at the deadline (vertices ";
  std::size_t ranges = 0;
  for (graph::Vertex v = 0; v < spec.n; ++v) {
    if (have[v]) continue;
    if (ranges == kListedRanges) {
      os << ", ...";
      break;
    }
    graph::Vertex last = v;
    while (last + 1 < spec.n && !have[last + 1]) ++last;
    os << (ranges > 0 ? ", " : "") << v;
    if (last > v) os << '-' << last;
    ++ranges;
    v = last;
  }
  os << "); " << rejected << " frame(s) rejected";
  return os.str();
}

}  // namespace

std::string_view reject_reason_name(RejectReason r) noexcept {
  switch (r) {
    case RejectReason::kCorrupt:
      return "corrupt";
    case RejectReason::kBadType:
      return "bad_type";
    case RejectReason::kBadProtocol:
      return "bad_protocol";
    case RejectReason::kBadRound:
      return "bad_round";
    case RejectReason::kBadVertex:
      return "bad_vertex";
    case RejectReason::kDuplicate:
      return "duplicate";
  }
  return "unknown";
}

std::pair<graph::Vertex, graph::Vertex> shard_range(
    graph::Vertex n, std::size_t parts, std::size_t index) noexcept {
  const std::size_t base = n / parts;
  const std::size_t extra = n % parts;
  const std::size_t begin =
      index * base + std::min<std::size_t>(index, extra);
  const std::size_t size = base + (index < extra ? 1 : 0);
  return {static_cast<graph::Vertex>(begin),
          static_cast<graph::Vertex>(begin + size)};
}

RoundCollector::RoundCollector(const RoundSpec& spec)
    : spec_(spec), sketches_(spec.n), have_(spec.n, false) {}

void RoundCollector::reject(RejectReason reason, std::string detail) {
  rejects_.push_back({reason, std::move(detail)});
}

std::size_t RoundCollector::offer_message(
    std::span<const std::uint8_t> message, std::string_view from,
    std::size_t from_index) {
  ++messages_;
  const auto sender = [&] {
    return std::string(from) + ' ' + std::to_string(from_index) + ": ";
  };
  // One pass: each frame is checked in place, and only an accepted one
  // has its payload copied out.
  wire::FrameWalker walker(message);
  wire::FrameView frame;
  std::size_t taken = 0;
  while (walker.next(frame)) {
    const wire::FrameHeader& h = frame.header;
    if (const auto why = check_frame(h, spec_, have_)) {
      reject(*why, sender() + frame_detail(*why, h, spec_));
      continue;
    }
    have_[h.vertex] = true;
    sketches_[h.vertex] = frame.copy_payload();
    ++taken;
  }
  if (walker.status() != wire::DecodeStatus::kOk) {
    std::ostringstream os;
    os << sender() << wire::decode_status_name(walker.status())
       << " at byte " << walker.offset() << " of a " << message.size()
       << "-byte message; dropped the rest of the message";
    reject(RejectReason::kCorrupt, os.str());
  }
  accepted_ += static_cast<graph::Vertex>(taken);
  return taken;
}

std::size_t RoundCollector::absorb(RoundCollector&& later,
                                   std::string_view later_name) {
  messages_ += later.messages_;
  for (Reject& r : later.rejects_) rejects_.push_back(std::move(r));
  std::size_t duplicates = 0;
  for (graph::Vertex v = 0; v < spec_.n; ++v) {
    if (!later.has(v)) continue;
    if (!have_[v]) {
      have_[v] = true;
      sketches_[v] = std::move(later.sketches_[v]);
      ++accepted_;
      continue;
    }
    ++duplicates;
    reject(RejectReason::kDuplicate,
           std::string(later_name) + ": cross-shard duplicate of vertex " +
               std::to_string(v) + " lost the merge");
  }
  return duplicates;
}

CollectedRound RoundCollector::finish() && {
  ServiceMetrics& m = metrics();
  m.messages.add(messages_);
  for (const Reject& r : rejects_) {
    m.rejects[static_cast<std::size_t>(r.reason)]->increment();
  }
  if (!complete()) {
    m.deadline_misses.increment();
    throw ServiceError(
        missing_report(spec_, have_, accepted_, rejects_.size()));
  }
  CollectedRound out;
  out.wire.frames = spec_.n;
  out.wire.messages = messages_;
  out.wire.rejected_frames = rejects_.size();
  for (graph::Vertex v = 0; v < spec_.n; ++v) {
    const std::size_t bits = sketches_[v].bit_count();
    const wire::FrameHeader h{wire::FrameType::kSketch, spec_.protocol_id, v,
                              spec_.round};
    out.wire.payload_bits += bits;
    out.wire.framing_bits += wire::encoded_frame_size(h, bits) * 8 - bits;
    m.sketch_bits.record(bits);
  }
  m.rounds_collected.increment();
  m.frames_accepted.add(spec_.n);
  m.payload_bits.add(out.wire.payload_bits);
  m.round_payload_bits.record(out.wire.payload_bits);
  out.sketches = std::move(sketches_);
  out.rejects = std::move(rejects_);
  return out;
}

std::size_t append_sketch_frame(std::vector<std::uint8_t>& batch,
                                std::uint32_t protocol_id,
                                graph::Vertex vertex, std::uint32_t round,
                                const util::BitString& payload) {
  const wire::FrameHeader header{wire::FrameType::kSketch, protocol_id,
                                 vertex, round};
  return wire::encode_frame(header, payload, batch);
}

wire::Frame await_referee_frame(wire::Link& link,
                                wire::FrameType expected_type,
                                std::uint32_t protocol_id,
                                std::chrono::milliseconds timeout) {
  const Clock::time_point deadline = Clock::now() + timeout;
  while (Clock::now() < deadline) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    const wire::RecvResult msg =
        link.recv(std::max(left, std::chrono::milliseconds(1)));
    if (msg.status == wire::RecvStatus::kTimeout) continue;
    if (msg.status != wire::RecvStatus::kOk) {
      throw ServiceError("referee link lost while awaiting a response");
    }
    // The whole message must parse, even past the frame we want.
    wire::FrameWalker walker(msg.message);
    wire::FrameView frame;
    std::optional<wire::FrameView> wanted;
    while (walker.next(frame)) {
      if (!wanted && frame.header.type == expected_type &&
          frame.header.protocol_id == protocol_id) {
        wanted = frame;
      }
    }
    if (walker.status() != wire::DecodeStatus::kOk) {
      throw ServiceError(
          std::string("corrupt referee message: ") +
          std::string(wire::decode_status_name(walker.status())));
    }
    if (wanted) return {wanted->header, wanted->copy_payload()};
  }
  throw ServiceError("timed out awaiting the referee's response");
}

model::CommStats comm_from_sketches(
    std::span<const util::BitString> sketches) {
  // Delegates to the engine's single charging site so wire accounting can
  // never drift from the simulated runners (docs/ENGINE.md).
  engine::ChargeSheet sheet(sketches.size());
  engine::PlainInstrumentation plain;
  return sheet.charge_round(sketches, plain);
}

}  // namespace ds::service
