// The engine's bit-accounting ledger: the ONE place sketch bits enter
// CommStats.
//
// The paper's cost measure is the worst-case per-player message length in
// bits (Section 2.1); for multi-round runs a player's cost is the SUM of
// its round messages, and the maximum is taken over those cumulative
// totals — not per round.  Before the engine existed this charging logic
// lived in four places (the one-round and the multi-round model runners,
// audit/audited_runner.h, service/referee_service.h) that could drift.
// Now `ChargeSheet::charge_round` is the only function that calls
// CommStats::record for sketch bits; every execution path goes through it
// (the engine-equivalence suite pins the resulting numbers to seed-era
// golden values).
//
// Charging is a serial pass in vertex order over each completed round.
// CommStats::record and ::merge are commutative-and-associative folds
// (max / sum / count), so this produces bit-identical stats to the
// seed-era per-chunk parallel reduction at any thread count.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "model/protocol.h"
#include "util/bitio.h"

namespace ds::engine {

class ChargeSheet {
 public:
  explicit ChargeSheet(std::size_t num_players)
      : player_bits_(num_players, 0) {}

  /// Charge one completed round of sketches (sketches[v] is player v's
  /// message) and return that round's CommStats.  `instr` sees every
  /// per-sketch bit count (Instrumentation::on_sketch_bits).
  template <typename Instrumentation>
  [[nodiscard]] model::CommStats charge_round(
      std::span<const util::BitString> sketches, Instrumentation& instr) {
    model::CommStats round;
    for (std::size_t v = 0; v < sketches.size(); ++v) {
      const std::size_t bits = sketches[v].bit_count();
      charge(round, bits);
      if (v < player_bits_.size()) player_bits_[v] += bits;
      instr.on_sketch_bits(bits);
    }
    return round;
  }

  /// Per-player cumulative totals across every charged round, in vertex
  /// order — the run-level CommStats the model reports.
  [[nodiscard]] model::CommStats player_totals() const {
    model::CommStats totals;
    for (const std::size_t bits : player_bits_) charge(totals, bits);
    return totals;
  }

 private:
  // The single CommStats::record call site for sketch bits in the entire
  // tree (acceptance criterion of the engine refactor).  Do not add more.
  static void charge(model::CommStats& into, std::size_t bits) noexcept {
    into.record(bits);
  }

  std::vector<std::size_t> player_bits_;
};

}  // namespace ds::engine
