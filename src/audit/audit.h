// Model-conformance auditing for the distributed sketching model.
//
// The lower bounds of the paper are statements about protocols that obey
// three structural rules (Section 2.1), and every experiment downstream is
// only as trustworthy as the implementation's adherence to them:
//
//   * locality          — a player's sketch is a function of its own view
//                         (n, id, its adjacency row, the public coins) and
//                         nothing else: not other rows, not other players'
//                         encode invocations, not hidden globals;
//   * coin-determinism  — re-running a player with the same view and the
//                         same public coins reproduces the identical
//                         message bit-for-bit (all protocol randomness
//                         flows through PublicCoins);
//   * bit-accounting    — the bits charged by the harness equal the bits
//                         actually serialized through util/bitio, and the
//                         referee's output is a function of those serialized
//                         bits plus the coins alone (no covert channel from
//                         encoder to referee through protocol-object state).
//
// This header defines the invariant vocabulary, the failure path
// (AuditError), and the non-template core checks; audited_runner.h
// builds the instrumented runners on top.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "model/protocol.h"
#include "util/bitio.h"

namespace ds::audit {

enum class Invariant : std::uint8_t {
  kLocality,
  kCoinDeterminism,
  kBitAccounting,
};

[[nodiscard]] std::string_view invariant_name(Invariant inv) noexcept;

/// Raised when a protocol violates a model invariant under audit.
class AuditError : public std::runtime_error {
 public:
  AuditError(Invariant inv, const std::string& detail);
  [[nodiscard]] Invariant invariant() const noexcept { return invariant_; }

 private:
  Invariant invariant_;
};

/// Report the violation and fail: throws AuditError.
[[noreturn]] void fail(Invariant inv, const std::string& detail);

struct AuditConfig {
  /// Canary slots placed before and after each player's row copy; a sketch
  /// that depends on them read outside its own adjacency row.
  std::size_t guard_slots = 8;
  bool check_locality = true;
  bool check_determinism = true;
  bool check_accounting = true;
};

struct AuditReport {
  std::size_t players_audited = 0;
  std::size_t encode_calls = 0;   // including replays and scrub passes
  std::size_t bits_verified = 0;  // bits round-tripped through util/bitio
  void merge(const AuditReport& other) noexcept {
    players_audited += other.players_audited;
    encode_calls += other.encode_calls;
    bits_verified += other.bits_verified;
  }
};

/// Bit-for-bit message equality (length and payload).
[[nodiscard]] bool same_message(const util::BitString& a,
                                const util::BitString& b) noexcept;

/// Structural bit-accounting checks on one serialized message: the word
/// storage must match the reported bit length exactly (no hidden payload
/// beyond bit_count) and the message must survive a bit-exact round trip
/// through BitReader -> BitWriter.  Fails with kBitAccounting.
void check_message_accounting(const util::BitString& message,
                              std::string_view who, AuditReport& report);

/// Type-erased player algorithm, so the per-player audit core is compiled
/// once rather than per protocol output type.
using EncodeFn =
    std::function<void(const model::VertexView&, util::BitWriter&)>;

/// Audit one player and return its (verified) message.
///
/// Encodes the player three times on freshly guard-padded copies of its
/// row — guard pattern A, guard pattern B, then pattern A again — with a
/// fresh PublicCoins(coin_seed) each time:
///   pass1 != pass3  (identical inputs)      -> kCoinDeterminism;
///   pass1 != pass2  (only guards changed)   -> kLocality;
/// then runs the structural accounting checks on the surviving message.
[[nodiscard]] util::BitString audited_encode_player(
    const EncodeFn& encode, graph::Vertex n, graph::Vertex v,
    std::span<const graph::Vertex> row,
    std::span<const std::uint32_t> weights, std::uint64_t coin_seed,
    const AuditConfig& cfg, AuditReport& report, std::string_view proto_name);

/// One additional guarded encode of the player (pattern A, fresh coins),
/// for order-permutation probes; performs no checks itself.
[[nodiscard]] util::BitString encode_player_once(
    const EncodeFn& encode, graph::Vertex n, graph::Vertex v,
    std::span<const graph::Vertex> row,
    std::span<const std::uint32_t> weights, std::uint64_t coin_seed,
    const AuditConfig& cfg, AuditReport& report);

/// Encode the player on a decoy (degree-zero) view and discard the output.
/// Honest referees never notice; a referee whose output changes afterwards
/// was reading encoder-side state instead of the charged messages.
void scrub_encode_player(const EncodeFn& encode, graph::Vertex n,
                         graph::Vertex v, std::uint64_t coin_seed,
                         AuditReport& report);

}  // namespace ds::audit
