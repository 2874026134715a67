#include "audit/audit.h"

#include <sstream>

#include "model/coins.h"

namespace ds::audit {
namespace {

// Guard canaries. Values chosen to be far outside any plausible vertex id
// or weight so a sketch that incorporates one is visibly corrupted.
constexpr std::uint32_t kGuardPatternA = 0xA5A5'A5A5u;
constexpr std::uint32_t kGuardPatternB = 0x5A5A'5A5Au;

/// Canary slots placed before and after each player's row copy; a sketch
/// that depends on them read outside its own adjacency row.
constexpr std::size_t kGuardSlots = 8;

/// A player's row (and weights, when present) copied into fresh storage
/// with kGuardSlots canary entries on each side.  The interior spans are
/// what the audited view hands to the encoder: an encoder that walks off
/// either end of its span reads canaries instead of a neighbor's row.
struct GuardedRow {
  std::vector<graph::Vertex> row_buf;
  std::vector<std::uint32_t> weight_buf;
  std::size_t degree = 0;
  bool has_weights = false;

  [[nodiscard]] std::span<const graph::Vertex> row() const noexcept {
    return {row_buf.data() + kGuardSlots, degree};
  }
  [[nodiscard]] std::span<const std::uint32_t> weights() const noexcept {
    if (!has_weights) return {};
    return {weight_buf.data() + kGuardSlots, degree};
  }
};

GuardedRow make_guarded_row(std::span<const graph::Vertex> row,
                            std::span<const std::uint32_t> weights,
                            std::uint32_t pattern) {
  GuardedRow g;
  g.degree = row.size();
  g.has_weights = !weights.empty();
  g.row_buf.assign(row.size() + 2 * kGuardSlots, pattern);
  std::copy(row.begin(), row.end(), g.row_buf.begin() + kGuardSlots);
  if (g.has_weights) {
    g.weight_buf.assign(weights.size() + 2 * kGuardSlots, pattern);
    std::copy(weights.begin(), weights.end(),
              g.weight_buf.begin() + kGuardSlots);
  }
  return g;
}

util::BitString encode_on(const EncodeFn& encode, graph::Vertex n,
                          graph::Vertex v, const GuardedRow& guarded,
                          std::uint64_t coin_seed, AuditReport& report) {
  const model::PublicCoins coins(coin_seed);
  const model::VertexView view{n, v, guarded.row(), &coins,
                               guarded.weights()};
  util::BitWriter writer;
  encode(view, writer);
  ++report.encode_calls;
  return util::BitString(writer);
}

std::string player_label(std::string_view proto_name, graph::Vertex v) {
  std::ostringstream out;
  out << "protocol '" << proto_name << "', player " << v;
  return out.str();
}

}  // namespace

std::string_view invariant_name(Invariant inv) noexcept {
  switch (inv) {
    case Invariant::kLocality:
      return "locality";
    case Invariant::kCoinDeterminism:
      return "coin-determinism";
    case Invariant::kBitAccounting:
      return "bit-accounting";
  }
  return "unknown";
}

AuditError::AuditError(Invariant inv, const std::string& detail)
    : std::runtime_error(std::string(invariant_name(inv)) +
                         " violation: " + detail),
      invariant_(inv) {}

void fail(Invariant inv, const std::string& detail) {
  throw AuditError(inv, detail);
}

bool same_message(const util::BitString& a,
                  const util::BitString& b) noexcept {
  return a.bit_count() == b.bit_count() && a.words() == b.words();
}

void check_message_accounting(const util::BitString& message,
                              std::string_view who, AuditReport& report) {
  const std::size_t bits = message.bit_count();
  const std::size_t expected_words = (bits + 63) / 64;
  if (message.words().size() != expected_words) {
    std::ostringstream out;
    out << who << ": message claims " << bits << " bits but stores "
        << message.words().size() << " words (expected " << expected_words
        << ") — storage does not match the charged length";
    fail(Invariant::kBitAccounting, out.str());
  }
  // Bits beyond bit_count must be zero: BitWriter masks every write, so a
  // nonzero tail means payload was smuggled past the accounting.
  if (bits % 64 != 0 && expected_words > 0) {
    const std::uint64_t tail = message.words().back() >> (bits % 64);
    if (tail != 0) {
      std::ostringstream out;
      out << who << ": " << bits
          << "-bit message carries nonzero payload beyond its charged "
             "length (uncharged tail bits)";
      fail(Invariant::kBitAccounting, out.str());
    }
  }
  // Bit-exact round trip through the reader/writer pair: what was charged
  // is exactly what a referee can read back.
  util::BitReader reader(message);
  util::BitWriter rewritten;
  std::size_t remaining = bits;
  while (remaining > 0) {
    const unsigned chunk = remaining >= 64 ? 64u
                                           : static_cast<unsigned>(remaining);
    rewritten.put_bits(reader.get_bits(chunk), chunk);
    remaining -= chunk;
  }
  const util::BitString round_trip(rewritten);
  if (!same_message(message, round_trip)) {
    std::ostringstream out;
    out << who << ": message does not survive a bit-exact "
        << "BitReader -> BitWriter round trip (" << bits << " bits)";
    fail(Invariant::kBitAccounting, out.str());
  }
  report.bits_verified += bits;
}

util::BitString audited_encode_player(
    const EncodeFn& encode, graph::Vertex n, graph::Vertex v,
    std::span<const graph::Vertex> row,
    std::span<const std::uint32_t> weights, std::uint64_t coin_seed,
    AuditReport& report, std::string_view proto_name) {
  const GuardedRow copy_a = make_guarded_row(row, weights, kGuardPatternA);
  const util::BitString pass1 = encode_on(encode, n, v, copy_a, coin_seed,
                                          report);
  const GuardedRow copy_b = make_guarded_row(row, weights, kGuardPatternB);
  const util::BitString pass2 = encode_on(encode, n, v, copy_b, coin_seed,
                                          report);
  const util::BitString pass3 = encode_on(encode, n, v, copy_a, coin_seed,
                                          report);

  // Classification order matters: pass1 and pass3 saw byte-identical
  // inputs, so any difference is nondeterminism; once replays agree, a
  // pass1/pass2 difference can only come from the guard canaries.
  if (!same_message(pass1, pass3)) {
    std::ostringstream out;
    out << player_label(proto_name, v)
        << ": two encodes with the identical view and identical public "
           "coins produced different messages ("
        << pass1.bit_count() << " vs " << pass3.bit_count()
        << " bits) — sketches must be deterministic functions of "
           "(view, coins)";
    fail(Invariant::kCoinDeterminism, out.str());
  }
  if (!same_message(pass1, pass2)) {
    std::ostringstream out;
    out << player_label(proto_name, v)
        << ": message changed when only the memory OUTSIDE the player's "
           "own adjacency row changed — the sketch read beyond its view "
           "(paper Section 2.1 locality)";
    fail(Invariant::kLocality, out.str());
  }

  check_message_accounting(pass1, player_label(proto_name, v), report);
  ++report.players_audited;
  return pass1;
}

util::BitString encode_player_once(
    const EncodeFn& encode, graph::Vertex n, graph::Vertex v,
    std::span<const graph::Vertex> row,
    std::span<const std::uint32_t> weights, std::uint64_t coin_seed,
    AuditReport& report) {
  const GuardedRow copy = make_guarded_row(row, weights, kGuardPatternA);
  return encode_on(encode, n, v, copy, coin_seed, report);
}

void scrub_encode_player(const EncodeFn& encode, graph::Vertex n,
                         graph::Vertex v, std::uint64_t coin_seed,
                         AuditReport& report) {
  const model::PublicCoins coins(coin_seed);
  const model::VertexView view{n, v, {}, &coins, {}};
  util::BitWriter writer;
  encode(view, writer);
  ++report.encode_calls;
}

}  // namespace ds::audit
