// Immutable undirected graph in compressed sparse row form.
//
// Vertices are labeled 0..n-1.  Adjacency lists are sorted, which gives
// O(log deg) edge queries and lets protocol encoders iterate neighbors in a
// canonical order (important: a player's message must be a deterministic
// function of its view, and the view hands out the sorted list).
//
// Edges are also exposed under a canonical linear id, edge_id(u, v) for
// u < v, dense over the n*(n-1)/2 vertex pairs; the linear-sketch layer
// indexes its vectors by this id.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace ds::graph {

using Vertex = std::uint32_t;

/// An undirected edge with endpoints normalized so that u <= v is NOT
/// enforced at construction; use normalized() where order matters.
struct Edge {
  Vertex u;
  Vertex v;

  [[nodiscard]] Edge normalized() const noexcept {
    return u <= v ? *this : Edge{v, u};
  }
  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

class Graph {
 public:
  /// Empty graph on n vertices.
  explicit Graph(Vertex n = 0);

  /// Build from an edge list in O(n + m) plus a sort of each deduplicated
  /// block. Self-loops and endpoints >= n are rejected (assert); duplicate
  /// edges, in either orientation, are collapsed. The result is the
  /// canonical CSR whatever the input order: sorted blocks, exactly 2|E|
  /// adjacency entries.
  static Graph from_edges(Vertex n, std::span<const Edge> edges);

  [[nodiscard]] Vertex num_vertices() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_edges() const noexcept {
    return adjacency_.size() / 2;
  }

  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const noexcept;
  [[nodiscard]] std::uint32_t degree(Vertex v) const noexcept;
  [[nodiscard]] std::uint32_t max_degree() const noexcept;
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const noexcept;

  /// All edges, each reported once with u < v, sorted lexicographically.
  [[nodiscard]] std::vector<Edge> edges() const;

  /// Canonical dense id of the unordered pair {u, v}, u != v, in
  /// [0, n(n-1)/2): pairs ordered by smaller endpoint then larger.
  [[nodiscard]] std::uint64_t edge_id(Vertex u, Vertex v) const noexcept;
  [[nodiscard]] Edge edge_from_id(std::uint64_t id) const noexcept;
  [[nodiscard]] std::uint64_t edge_id_space() const noexcept {
    return static_cast<std::uint64_t>(n_) * (n_ - 1) / 2;
  }

  /// The graph with vertex v relabeled to perm[v]. perm must be a
  /// permutation of [0, n).
  [[nodiscard]] Graph relabeled(std::span<const Vertex> perm) const;

  /// Union of edge sets; both graphs must have the same vertex count.
  [[nodiscard]] static Graph edge_union(const Graph& a, const Graph& b);

  /// Subgraph induced by `keep` (ids preserved; edges with an endpoint
  /// outside `keep` are dropped).
  [[nodiscard]] Graph induced(std::span<const Vertex> keep) const;

  friend bool operator==(const Graph&, const Graph&) = default;

 private:
  Vertex n_ = 0;
  std::vector<std::size_t> offsets_;   // n_ + 1 entries
  std::vector<Vertex> adjacency_;      // sorted within each vertex block
};

/// Dense pair id helpers usable without a Graph instance.
[[nodiscard]] std::uint64_t pair_id(Vertex n, Vertex u, Vertex v) noexcept;
[[nodiscard]] Edge pair_from_id(Vertex n, std::uint64_t id) noexcept;

}  // namespace ds::graph
