// Audited execution of the refined-player protocols that the Section 3.2
// accounting and the protocol-search path both charge.
//
// Refined encoders (lowerbound/players.h) are deterministic by
// construction of the proof (Yao), and a refined player's whole input is
// its edge list.  The audit therefore enforces:
//   * coin-determinism — encoding the same player twice, from two distinct
//     RefinedPlayer copies, must produce identical messages (catches
//     hidden randomness and address-keyed behavior);
//   * locality — the edges the encoder's own decoder parses back out of
//     the message must all be edges the player actually sees;
//   * bit-accounting — each message passes the structural bitio checks,
//     and the decoder may not consume more bits than were charged.
#pragma once

#include <vector>

#include "audit/audit.h"
#include "lowerbound/players.h"

namespace ds::audit {

struct AuditedRefinedResult {
  std::vector<util::BitString> messages;  // player order, as run_refined
  std::size_t max_message_bits = 0;
  AuditReport report;
};

/// Run every refined player of `inst` under `encoder` with the checks
/// above; fails through audit::fail on a violation.
[[nodiscard]] AuditedRefinedResult run_refined_audited(
    const lowerbound::DmmInstance& inst,
    const std::vector<lowerbound::RefinedPlayer>& players,
    const lowerbound::RefinedEncoder& encoder);

}  // namespace ds::audit
