#include "lowerbound/players.h"

#include <algorithm>
#include <set>

namespace ds::lowerbound {

using graph::Edge;
using graph::Vertex;

std::vector<RefinedPlayer> build_refined_players(const DmmInstance& inst) {
  const DmmParameters& p = inst.params;
  const rs::RsGraph& base = *inst.base;

  std::vector<RefinedPlayer> players;
  players.reserve(p.num_public() + p.k * p.big_n);

  // Public players: all G-edges incident on their vertex.
  for (std::uint32_t l = 0; l < p.num_public(); ++l) {
    RefinedPlayer player;
    player.is_public = true;
    player.base_index = l;
    const Vertex v = inst.public_final[l];
    for (Vertex w : inst.g.neighbors(v)) {
      player.edges.push_back(Edge{v, w}.normalized());
    }
    std::sort(player.edges.begin(), player.edges.end());
    players.push_back(std::move(player));
  }

  // Unique players: per copy i, per base vertex j, the surviving edges of
  // G_i incident on j, in final labels.  Recover the (matching, slot)
  // identity of each base edge from the RS partition.
  //
  // star_pos / public_pos mirror build_dmm's relabeling.
  const std::vector<Vertex> v_star = base.matching_vertices(inst.j_star);
  std::vector<std::uint32_t> star_pos(p.big_n, 0xffffffffu);
  for (std::size_t l = 0; l < v_star.size(); ++l)
    star_pos[v_star[l]] = static_cast<std::uint32_t>(l);
  std::vector<std::uint32_t> public_pos(p.big_n, 0xffffffffu);
  {
    std::uint32_t next = 0;
    for (Vertex b = 0; b < p.big_n; ++b) {
      if (star_pos[b] == 0xffffffffu) public_pos[b] = next++;
    }
  }
  auto final_label = [&](std::uint64_t i, Vertex b) -> Vertex {
    return star_pos[b] != 0xffffffffu ? inst.unique_final[i][star_pos[b]]
                                      : inst.public_final[public_pos[b]];
  };

  // Incident (j, e) pairs per base vertex.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> incident(
      p.big_n);
  for (std::uint32_t j = 0; j < p.t; ++j) {
    for (std::uint32_t e = 0; e < p.r; ++e) {
      const Edge& edge = base.matchings[j][e];
      incident[edge.u].push_back({j, e});
      incident[edge.v].push_back({j, e});
    }
  }

  for (std::uint64_t i = 0; i < p.k; ++i) {
    for (Vertex b = 0; b < p.big_n; ++b) {
      RefinedPlayer player;
      player.is_public = false;
      player.copy = i;
      player.base_index = b;
      for (const auto& [j, e] : incident[b]) {
        if (!inst.bits.get(i, j, e)) continue;
        const Edge& be = base.matchings[j][e];
        player.edges.push_back(
            Edge{final_label(i, be.u), final_label(i, be.v)}.normalized());
      }
      std::sort(player.edges.begin(), player.edges.end());
      players.push_back(std::move(player));
    }
  }
  return players;
}

namespace {

void write_edges(const DmmParameters& params, std::span<const Edge> edges,
                 util::BitWriter& out) {
  const unsigned width = util::bit_width_for(params.n);
  out.put_gamma(edges.size() + 1);
  for (const Edge& e : edges) {
    out.put_bits(e.u, width);
    out.put_bits(e.v, width);
  }
}

std::vector<Edge> read_edges(const DmmParameters& params,
                             util::BitReader& in) {
  if (in.bits_remaining() == 0) return {};
  const unsigned width = util::bit_width_for(params.n);
  // Robustness clamp against malformed headers.
  const std::uint64_t count = in.get_span_length(2 * width);
  std::vector<Edge> edges;
  edges.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const Vertex u = static_cast<Vertex>(in.get_bits(width));
    const Vertex v = static_cast<Vertex>(in.get_bits(width));
    edges.push_back({u, v});
  }
  return edges;
}

}  // namespace

void FullReportEncoder::encode(const DmmParameters& params,
                               const RefinedPlayer& player,
                               util::BitWriter& out) const {
  write_edges(params, player.edges, out);
}

std::vector<Edge> FullReportEncoder::decode(const DmmParameters& params,
                                            util::BitReader& in) const {
  return read_edges(params, in);
}

void CappedReportEncoder::encode(const DmmParameters& params,
                                 const RefinedPlayer& player,
                                 util::BitWriter& out) const {
  const std::size_t take = std::min(cap_, player.edges.size());
  write_edges(params, std::span<const Edge>(player.edges).first(take), out);
}

std::vector<Edge> CappedReportEncoder::decode(const DmmParameters& params,
                                              util::BitReader& in) const {
  return read_edges(params, in);
}

std::vector<util::BitString> run_refined(const DmmInstance& inst,
                                         const std::vector<RefinedPlayer>& players,
                                         const RefinedEncoder& encoder) {
  std::vector<util::BitString> messages;
  messages.reserve(players.size());
  for (const RefinedPlayer& player : players) {
    util::BitWriter writer;
    encoder.encode(inst.params, player, writer);
    messages.emplace_back(writer);
  }
  return messages;
}

graph::Matching refined_referee(const DmmInstance& inst,
                                const std::vector<RefinedPlayer>& players,
                                const RefinedEncoder& encoder,
                                std::span<const util::BitString> messages) {
  // Union of everything reported.
  std::set<std::pair<Vertex, Vertex>> reported;
  for (std::size_t idx = 0; idx < players.size(); ++idx) {
    util::BitReader reader(messages[idx]);
    for (const Edge& e : encoder.decode(inst.params, reader)) {
      const Edge ne = e.normalized();
      reported.insert({ne.u, ne.v});
    }
  }
  // Candidate special pairs are known from (sigma, j*): keep the reported
  // ones.
  graph::Matching out;
  for (const graph::Matching& full : inst.special_full) {
    for (const Edge& e : full) {
      const Edge ne = e.normalized();
      if (reported.contains({ne.u, ne.v})) out.push_back(ne);
    }
  }
  return out;
}

}  // namespace ds::lowerbound
