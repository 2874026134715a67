#include "protocols/coloring.h"

#include <algorithm>
#include <vector>

#include "protocols/budgeted.h"

namespace ds::protocols {

using graph::Graph;
using graph::Vertex;

std::vector<std::uint32_t> PaletteSparsificationColoring::color_list(
    const model::PublicCoins& coins, Vertex v) const {
  util::Rng rng = coins.stream(model::coin_tag(model::CoinTag::kPalette, v));
  const std::uint64_t want = std::min<std::uint64_t>(list_size_, num_colors_);
  std::vector<std::uint32_t> list;
  list.reserve(want);
  for (std::uint64_t pick :
       rng.sample_without_replacement(num_colors_, want)) {
    list.push_back(static_cast<std::uint32_t>(pick));
  }
  return list;  // sample_without_replacement returns sorted values
}

namespace {

bool lists_intersect(const std::vector<std::uint32_t>& a,
                     const std::vector<std::uint32_t>& b) {
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j])
      ++i;
    else
      ++j;
  }
  return false;
}

/// Augmenting repair for a stuck vertex: try each color in its list; if
/// a color is free among conflict neighbors, take it; if exactly one
/// neighbor holds it, steal it and recursively re-seat that neighbor
/// (Kuhn's algorithm when the conflict component is a clique — exact
/// there — and a principled heuristic elsewhere).
bool try_assign(graph::Vertex v, const Graph& conflict,
                const std::vector<std::vector<std::uint32_t>>& lists,
                model::ColoringOutput& coloring, std::vector<bool>& visited,
                int depth) {
  for (std::uint32_t c : lists[v]) {
    bool free = true;
    for (Vertex w : conflict.neighbors(v)) {
      if (coloring[w] == c) {
        free = false;
        break;
      }
    }
    if (free) {
      coloring[v] = c;
      return true;
    }
  }
  if (depth == 0) return false;
  for (std::uint32_t c : lists[v]) {
    Vertex holder = 0;
    std::size_t holders = 0;
    for (Vertex w : conflict.neighbors(v)) {
      if (coloring[w] == c) {
        holder = w;
        ++holders;
      }
    }
    if (holders != 1 || visited[holder]) continue;
    visited[holder] = true;
    const std::uint32_t saved = coloring[holder];
    coloring[holder] = kUncolored;
    coloring[v] = c;
    if (try_assign(holder, conflict, lists, coloring, visited, depth - 1)) {
      return true;
    }
    coloring[holder] = saved;
    coloring[v] = kUncolored;
  }
  return false;
}

}  // namespace

void PaletteSparsificationColoring::encode(const model::VertexView& view,
                                           util::BitWriter& out) const {
  const std::vector<std::uint32_t> mine = color_list(*view.coins, view.id);
  std::vector<Vertex> conflicts;
  for (Vertex w : view.neighbors) {
    if (lists_intersect(mine, color_list(*view.coins, w))) {
      conflicts.push_back(w);
    }
  }
  put_report(conflicts, view.n, out);
}

model::ColoringOutput PaletteSparsificationColoring::decode(
    Vertex n, std::span<const util::BitString> sketches,
    const model::PublicCoins& coins) const {
  // Rebuild the conflict graph.
  std::vector<graph::Edge> conflict_edges;
  for (Vertex v = 0; v < n; ++v) {
    util::BitReader reader(sketches[v]);
    read_report(reader, v, n,
                [&](Vertex w) { conflict_edges.push_back({v, w}); });
  }
  const Graph conflict = Graph::from_edges(n, conflict_edges);

  std::vector<std::vector<std::uint32_t>> lists;
  lists.reserve(n);
  for (Vertex v = 0; v < n; ++v) lists.push_back(color_list(coins, v));

  // Randomized greedy list-coloring of the conflict graph, restarting on
  // failure. ACK19 guarantee a list coloring exists w.h.p.; greedy over a
  // random order finds one empirically for the sizes we run.
  util::Rng rng = coins.stream(model::coin_tag(model::CoinTag::kShuffle, 20));
  model::ColoringOutput best(n, kUncolored);
  std::size_t best_colored = 0;
  for (unsigned attempt = 0; attempt < retries_; ++attempt) {
    std::vector<Vertex> order = rng.permutation(n);
    model::ColoringOutput coloring(n, kUncolored);
    std::size_t colored = 0;
    for (Vertex v : order) {
      std::uint32_t chosen = kUncolored;
      for (std::uint32_t c : lists[v]) {
        bool clash = false;
        for (Vertex w : conflict.neighbors(v)) {
          if (coloring[w] == c) {
            clash = true;
            break;
          }
        }
        if (!clash) {
          chosen = c;
          break;
        }
      }
      coloring[v] = chosen;
      if (chosen != kUncolored) ++colored;
    }
    // Augmenting repair pass for the vertices greedy left stuck.
    for (Vertex v : order) {
      if (coloring[v] != kUncolored) continue;
      std::vector<bool> visited(n, false);
      visited[v] = true;
      if (try_assign(v, conflict, lists, coloring, visited, /*depth=*/16)) {
        ++colored;
      }
    }
    if (colored > best_colored) {
      best_colored = colored;
      best = std::move(coloring);
    }
    if (best_colored == n) break;
  }
  return best;
}

}  // namespace ds::protocols
