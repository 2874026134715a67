#include "protocols/luby_bcc.h"

#include <bit>
#include <cassert>
#include <vector>

#include "protocols/budgeted.h"

namespace ds::protocols {

using graph::Vertex;

namespace {

constexpr std::uint64_t kLubyTag = 0x10B1;

}  // namespace

unsigned LubyBroadcastMis::default_phases(Vertex n) {
  return 2 * static_cast<unsigned>(
                 std::bit_width(static_cast<std::uint64_t>(n))) +
         4;
}

LubyBroadcastMis make_luby_bcc(Vertex n) {
  return LubyBroadcastMis(LubyBroadcastMis::default_phases(n));
}

std::uint64_t LubyBroadcastMis::priority(const model::PublicCoins& coins,
                                         Vertex v, unsigned phase) {
  util::Rng rng = coins.stream(model::coin_tag(
      model::CoinTag::kMark, util::mix64(kLubyTag, util::mix64(v, phase))));
  return rng.next();
}

void LubyBroadcastMis::encode_round(
    const model::VertexView& view, unsigned round,
    std::span<const util::BitString> broadcasts, util::BitWriter& out) const {
  const unsigned phase = round / 2;
  const bool join_round = round % 2 == 0;

  // Activity of every vertex entering this phase: the latest active
  // bitmap (broadcast after round 2*phase - 1), or all-active at phase 0.
  std::vector<bool> active;
  if (phase == 0) {
    active.assign(view.n, true);
  } else {
    active = read_vertex_bitmap(broadcasts[2 * phase - 1], view.n);
  }

  if (join_round) {
    bool joins = false;
    if (active[view.id]) {
      joins = true;
      const std::uint64_t mine = priority(*view.coins, view.id, phase);
      for (Vertex w : view.neighbors) {
        if (!active[w]) continue;
        const std::uint64_t theirs = priority(*view.coins, w, phase);
        if (theirs < mine || (theirs == mine && w < view.id)) {
          joins = false;
          break;
        }
      }
    }
    out.put_bit(joins);
    return;
  }

  // Active-report round: joined bitmap of this phase just arrived.
  const std::vector<bool> joined =
      read_vertex_bitmap(broadcasts[2 * phase], view.n);
  bool still_active = active[view.id] && !joined[view.id];
  if (still_active) {
    for (Vertex w : view.neighbors) {
      if (joined[w]) {
        still_active = false;
        break;
      }
    }
  }
  out.put_bit(still_active);
}

util::BitString LubyBroadcastMis::make_broadcast(
    unsigned round, Vertex n,
    std::span<const std::vector<util::BitString>> rounds_so_far,
    const model::PublicCoins& /*coins*/) const {
  // Relay the n one-bit messages of the round just completed as a bitmap.
  std::vector<bool> bits(n);
  for (Vertex v = 0; v < n; ++v) {
    util::BitReader reader(rounds_so_far[round][v]);
    bits[v] = reader.bits_remaining() > 0 && reader.get_bit();
  }
  return vertex_bitmap(bits);
}

model::VertexSetOutput LubyBroadcastMis::decode_rounds(
    Vertex n, std::span<const std::vector<util::BitString>> all_rounds,
    std::span<const util::BitString> /*broadcasts*/,
    const model::PublicCoins& /*coins*/) const {
  model::VertexSetOutput result;
  for (unsigned phase = 0; phase < phases_; ++phase) {
    for (Vertex v = 0; v < n; ++v) {
      util::BitReader reader(all_rounds[2 * phase][v]);
      if (reader.bits_remaining() > 0 && reader.get_bit()) {
        result.push_back(v);
      }
    }
  }
  return result;
}

}  // namespace ds::protocols
