#include "audit/audited_refined.h"

#include <algorithm>
#include <sstream>

namespace ds::audit {
namespace {

std::string refined_label(const lowerbound::RefinedEncoder& encoder,
                          std::size_t index,
                          const lowerbound::RefinedPlayer& player) {
  std::ostringstream out;
  out << "encoder '" << encoder.name() << "', refined player " << index
      << (player.is_public ? " (public)" : " (unique)");
  return out.str();
}

}  // namespace

AuditedRefinedResult run_refined_audited(
    const lowerbound::DmmInstance& inst,
    const std::vector<lowerbound::RefinedPlayer>& players,
    const lowerbound::RefinedEncoder& encoder) {
  AuditedRefinedResult result;
  result.messages.reserve(players.size());

  for (std::size_t idx = 0; idx < players.size(); ++idx) {
    const lowerbound::RefinedPlayer& player = players[idx];
    const std::string who = refined_label(encoder, idx, player);

    util::BitWriter writer;
    encoder.encode(inst.params, player, writer);
    ++result.report.encode_calls;
    util::BitString message(writer);

    // Replay from a distinct copy of the player: identical input, fresh
    // addresses.  The proof fixes the protocol's randomness, so any
    // difference is a conformance bug.
    const lowerbound::RefinedPlayer copy = player;
    util::BitWriter replay_writer;
    encoder.encode(inst.params, copy, replay_writer);
    ++result.report.encode_calls;
    const util::BitString replay(replay_writer);
    if (!same_message(message, replay)) {
      fail(Invariant::kCoinDeterminism,
           who + ": two encodes of the identical player produced "
                 "different messages — refined encoders must be "
                 "deterministic (Yao-fixed randomness)");
    }

    check_message_accounting(message, who, result.report);

    // Whatever edge list the decoder recovers must be contained in the
    // player's view; reporting an unseen edge means the encoder consulted
    // state beyond its input.
    util::BitReader reader(message);
    const std::vector<graph::Edge> reported =
        encoder.decode(inst.params, reader);
    if (reader.position() > message.bit_count()) {
      fail(Invariant::kBitAccounting,
           who + ": decoder consumed more bits than the message was "
                 "charged for");
    }
    for (const graph::Edge& e : reported) {
      const graph::Edge norm = e.normalized();
      const bool visible = std::any_of(
          player.edges.begin(), player.edges.end(),
          [&norm](const graph::Edge& own) {
            return own.normalized() == norm;
          });
      if (!visible) {
        std::ostringstream out;
        out << who << ": reported edge (" << e.u << ", " << e.v
            << ") is not in the player's view — the encoder read an edge "
               "it does not hold (locality)";
        fail(Invariant::kLocality, out.str());
      }
    }

    result.max_message_bits =
        std::max(result.max_message_bits, message.bit_count());
    ++result.report.players_audited;
    result.messages.push_back(std::move(message));
  }
  return result;
}

}  // namespace ds::audit
