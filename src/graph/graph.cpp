#include "graph/graph.h"

#include <algorithm>
#include <cassert>

namespace ds::graph {

Graph::Graph(Vertex n) : n_(n), offsets_(static_cast<std::size_t>(n) + 1, 0) {}

Graph Graph::from_edges(Vertex n, std::span<const Edge> edges) {
  // Counting sort straight into CSR: histogram both endpoints, scatter the
  // 2m half-edges forward into their owners' blocks, then drop each block's
  // repeats with a last-owner stamp and sort only what is left.  Transient
  // memory is the half-edge array plus O(n).
  Graph g(n);
  std::vector<std::size_t>& offsets = g.offsets_;
  for (const Edge& e : edges) {
    assert(e.u != e.v && "self-loops are not supported");
    assert(e.u < n && e.v < n);
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  // Counted one slot up, the prefix sums make offsets[v] the start of v's
  // raw block, and the scatter walks each cursor forward to its block's
  // end.  Forward keeps list order within a block, so a list in (u, v)
  // order, or grouped by sender as a referee's reports are, lands sorted.
  for (Vertex v = 1; v < n; ++v) offsets[v] += offsets[v - 1];
  offsets[n] = 2 * edges.size();
  std::vector<Vertex> adjacency(offsets[n]);
  for (const Edge& e : edges) {
    adjacency[offsets[e.u]++] = e.v;
    adjacency[offsets[e.v]++] = e.u;
  }

  // Compact in place (writes never pass reads): a neighbor is kept the
  // first time owner v meets it.  Owners are < n <= 2^32 - 1, so ~0 is
  // never one.  Each cursor now marks its raw block's end, and the
  // block's start is where the block before it ended.
  std::vector<Vertex> last_owner(n, ~Vertex{0});
  std::size_t kept = 0;
  std::size_t begin = 0;
  for (Vertex v = 0; v < n; ++v) {
    const std::size_t end = offsets[v];
    offsets[v] = kept;
    for (std::size_t i = begin; i < end; ++i) {
      const Vertex w = adjacency[i];
      adjacency[kept] = w;
      kept += last_owner[w] != v;
      last_owner[w] = v;
    }
    std::sort(adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
              adjacency.begin() + static_cast<std::ptrdiff_t>(kept));
    begin = end;
  }
  offsets[n] = kept;
  adjacency.resize(kept);
  adjacency.shrink_to_fit();
  g.adjacency_ = std::move(adjacency);
  return g;
}

std::span<const Vertex> Graph::neighbors(Vertex v) const noexcept {
  assert(v < n_);
  return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
}

std::uint32_t Graph::degree(Vertex v) const noexcept {
  assert(v < n_);
  return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
}

std::uint32_t Graph::max_degree() const noexcept {
  std::uint32_t best = 0;
  for (Vertex v = 0; v < n_; ++v) best = std::max(best, degree(v));
  return best;
}

bool Graph::has_edge(Vertex u, Vertex v) const noexcept {
  if (u >= n_ || v >= n_ || u == v) return false;
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> result;
  result.reserve(num_edges());
  for (Vertex u = 0; u < n_; ++u) {
    for (Vertex v : neighbors(u)) {
      if (u < v) result.push_back({u, v});
    }
  }
  return result;
}

std::uint64_t pair_id(Vertex n, Vertex u, Vertex v) noexcept {
  assert(u != v && u < n && v < n);
  if (u > v) std::swap(u, v);
  const std::uint64_t un = u;
  // Pairs with smaller endpoint < u occupy the first
  // sum_{i<u}(n-1-i) = u*n - u(u+1)/2 ids.
  return un * n - un * (un + 1) / 2 + (v - u - 1);
}

Edge pair_from_id(Vertex n, std::uint64_t id) noexcept {
  // Binary search for the smaller endpoint u: block of u starts at
  // start(u) = u*n - u(u+1)/2.
  auto start = [n](std::uint64_t u) {
    return u * n - u * (u + 1) / 2;
  };
  Vertex lo = 0, hi = n - 1;  // u in [0, n-1)
  while (lo + 1 < hi) {
    const Vertex mid = lo + (hi - lo) / 2;
    if (start(mid) <= id)
      lo = mid;
    else
      hi = mid;
  }
  const Vertex u = (hi > lo && start(hi) <= id) ? hi : lo;
  const std::uint64_t within = id - start(u);
  return {u, static_cast<Vertex>(u + 1 + within)};
}

std::uint64_t Graph::edge_id(Vertex u, Vertex v) const noexcept {
  return pair_id(n_, u, v);
}

Edge Graph::edge_from_id(std::uint64_t id) const noexcept {
  return pair_from_id(n_, id);
}

Graph Graph::relabeled(std::span<const Vertex> perm) const {
  assert(perm.size() == n_);
  std::vector<Edge> mapped;
  mapped.reserve(num_edges());
  for (const Edge& e : edges()) mapped.push_back({perm[e.u], perm[e.v]});
  return from_edges(n_, mapped);
}

Graph Graph::edge_union(const Graph& a, const Graph& b) {
  assert(a.num_vertices() == b.num_vertices());
  std::vector<Edge> all = a.edges();
  const std::vector<Edge> be = b.edges();
  all.insert(all.end(), be.begin(), be.end());
  return from_edges(a.num_vertices(), all);
}

Graph Graph::induced(std::span<const Vertex> keep) const {
  std::vector<bool> in(n_, false);
  for (Vertex v : keep) {
    assert(v < n_);
    in[v] = true;
  }
  std::vector<Edge> kept;
  for (const Edge& e : edges()) {
    if (in[e.u] && in[e.v]) kept.push_back(e);
  }
  return from_edges(n_, kept);
}

}  // namespace ds::graph
