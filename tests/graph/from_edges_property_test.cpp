// Graph::from_edges against the sort-based builder it replaced.
//
// The oracle is that builder as it was (normalize, sort, unique, then
// count, place and sort each block), writing into a bare CSR.  Graph's
// defaulted == compares exactly this triple (n, offsets, adjacency), read
// back here through the public API, so equal CSRs mean equal Graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace ds::graph {
namespace {

struct Csr {
  Vertex n = 0;
  std::vector<std::size_t> offsets;
  std::vector<Vertex> adjacency;
  friend bool operator==(const Csr&, const Csr&) = default;
};

Csr sort_based_csr(Vertex n, std::span<const Edge> edges) {
  std::vector<Edge> normalized;
  normalized.reserve(edges.size());
  for (const Edge& e : edges) normalized.push_back(e.normalized());
  std::sort(normalized.begin(), normalized.end());
  normalized.erase(std::unique(normalized.begin(), normalized.end()),
                   normalized.end());

  std::vector<std::uint32_t> degree(n, 0);
  for (const Edge& e : normalized) {
    ++degree[e.u];
    ++degree[e.v];
  }
  Csr csr;
  csr.n = n;
  csr.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (Vertex v = 0; v < n; ++v) csr.offsets[v + 1] = csr.offsets[v] + degree[v];
  csr.adjacency.resize(csr.offsets[n]);

  std::vector<std::size_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
  for (const Edge& e : normalized) {
    csr.adjacency[cursor[e.u]++] = e.v;
    csr.adjacency[cursor[e.v]++] = e.u;
  }
  for (Vertex v = 0; v < n; ++v) {
    std::sort(
        csr.adjacency.begin() + static_cast<std::ptrdiff_t>(csr.offsets[v]),
        csr.adjacency.begin() + static_cast<std::ptrdiff_t>(csr.offsets[v + 1]));
  }
  return csr;
}

Csr csr_of(const Graph& g) {
  Csr csr;
  csr.n = g.num_vertices();
  csr.offsets.push_back(0);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    csr.adjacency.insert(csr.adjacency.end(), nbrs.begin(), nbrs.end());
    csr.offsets.push_back(csr.adjacency.size());
  }
  return csr;
}

void expect_matches_oracle(Vertex n, std::span<const Edge> edges) {
  const Graph g = Graph::from_edges(n, edges);
  const Csr expected = sort_based_csr(n, edges);
  EXPECT_EQ(csr_of(g), expected) << "n=" << n << " m=" << edges.size();
  EXPECT_EQ(g.num_edges() * 2, expected.adjacency.size());
  // Any input order of the same edge set gives the same Graph.
  std::vector<Edge> reversed(edges.rbegin(), edges.rend());
  for (Edge& e : reversed) e = {e.v, e.u};
  EXPECT_EQ(Graph::from_edges(n, reversed), g);
}

/// A random pair u != v in [0, n), in random orientation.
Edge random_edge(Vertex n, util::Rng& rng) {
  const auto u = static_cast<Vertex>(rng.next_below(n));
  auto v = static_cast<Vertex>(rng.next_below(n - 1));
  if (v >= u) ++v;
  return {u, v};
}

TEST(FromEdgesProperty, RandomListsMatchSortBasedBuilder) {
  util::Rng rng(0xED6E5);
  for (int rep = 0; rep < 300; ++rep) {
    const auto n = static_cast<Vertex>(2 + rng.next_below(80));
    // Sparse to dense, so some lists leave most vertices isolated.
    const std::size_t m = rng.next_below(4 * n + 1);
    std::vector<Edge> edges;
    for (std::size_t i = 0; i < m; ++i) {
      if (!edges.empty() && rng.next_below(3) == 0) {
        // Repeat an earlier edge, in either orientation.
        const Edge e = edges[rng.next_below(edges.size())];
        edges.push_back(rng.next_bit() ? e : Edge{e.v, e.u});
      } else {
        edges.push_back(random_edge(n, rng));
      }
    }
    expect_matches_oracle(n, edges);
  }
}

TEST(FromEdgesProperty, DuplicatedHubMatchesSortBasedBuilder) {
  // D_MM's public vertices: raw degree in the hundreds, each neighbor
  // reported by many copies, in both orientations.
  util::Rng rng(64);
  constexpr Vertex kN = 500;
  constexpr Vertex kHub = 137;
  std::vector<Edge> edges;
  for (int i = 0; i < 900; ++i) {
    const auto w = static_cast<Vertex>(rng.next_below(120));  // < kHub
    edges.push_back(rng.next_bit() ? Edge{kHub, w} : Edge{w, kHub});
  }
  for (int i = 0; i < 600; ++i) edges.push_back(random_edge(kN, rng));
  const Graph g = Graph::from_edges(kN, edges);
  EXPECT_GT(g.degree(kHub), 100u);
  EXPECT_LT(g.degree(kHub), 300u);
  expect_matches_oracle(kN, edges);
}

TEST(FromEdgesProperty, EmptyAndTinyInputs) {
  for (const Vertex n : {0u, 1u, 2u, 7u}) {
    expect_matches_oracle(n, {});
    EXPECT_EQ(Graph::from_edges(n, {}), Graph(n));
  }
  const std::vector<Edge> one{{0, 1}, {1, 0}, {0, 1}};
  expect_matches_oracle(2, one);
  EXPECT_EQ(Graph::from_edges(2, one).num_edges(), 1u);
  // Isolated vertices at both ends of the id range.
  const std::vector<Edge> middle{{3, 2}, {2, 3}, {4, 2}};
  expect_matches_oracle(7, middle);
}

}  // namespace
}  // namespace ds::graph
