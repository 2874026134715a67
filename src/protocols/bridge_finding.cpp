#include "protocols/bridge_finding.h"

#include <algorithm>
#include <vector>

#include "graph/connectivity.h"
#include "protocols/budgeted.h"

namespace ds::protocols {

using graph::Edge;
using graph::Graph;
using graph::Vertex;

void BridgeFinding::encode(const model::VertexView& view,
                           util::BitWriter& out) const {
  // (a) sampled incident edges.
  put_sampled_report(view, view.neighbors, samples_, view.id, out);

  // (b) the signed incidence sum, mod 2^64.
  const std::uint64_t n64 = view.n;
  std::uint64_t sum = 0;
  for (Vertex z : view.neighbors) {
    if (z > view.id) {
      sum += static_cast<std::uint64_t>(z) * n64 + view.id;
    } else {
      sum -= static_cast<std::uint64_t>(view.id) * n64 + z;
    }
  }
  out.put_bits(sum, 64);
}

namespace {

/// Cut edges (bridges) of g by iterative Tarjan low-link.
std::vector<Edge> cut_edges(const Graph& g) {
  const Vertex n = g.num_vertices();
  std::vector<std::uint32_t> disc(n, 0), low(n, 0);
  std::vector<Vertex> parent(n, n);
  std::vector<Edge> result;
  std::uint32_t timer = 1;

  struct Frame {
    Vertex v;
    std::size_t next_neighbor;
  };
  for (Vertex start = 0; start < n; ++start) {
    if (disc[start] != 0) continue;
    std::vector<Frame> stack{{start, 0}};
    disc[start] = low[start] = timer++;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto nbrs = g.neighbors(frame.v);
      if (frame.next_neighbor < nbrs.size()) {
        const Vertex w = nbrs[frame.next_neighbor++];
        if (disc[w] == 0) {
          parent[w] = frame.v;
          disc[w] = low[w] = timer++;
          stack.push_back({w, 0});
        } else if (w != parent[frame.v]) {
          low[frame.v] = std::min(low[frame.v], disc[w]);
        }
      } else {
        const Vertex v = frame.v;
        stack.pop_back();
        if (!stack.empty()) {
          const Vertex p = stack.back().v;
          low[p] = std::min(low[p], low[v]);
          if (low[v] > disc[p]) result.push_back(Edge{p, v});
        }
      }
    }
  }
  return result;
}

/// Decode candidate edge from the A-side sum; see header for the sign
/// discussion. Returns true and fills `bridge` if X parses as (v*n + u),
/// u < v < n, with the expected endpoint in A.
bool try_decode(std::uint64_t x, Vertex n, const std::vector<bool>& in_a,
                bool smaller_endpoint_in_a, Edge& bridge) {
  const std::uint64_t n64 = n;
  const std::uint64_t v = x / n64;
  const std::uint64_t u = x % n64;
  if (v >= n64 || u >= v) return false;
  const bool u_in_a = in_a[u];
  const bool v_in_a = in_a[v];
  if (u_in_a == v_in_a) return false;  // must cross the partition
  if (u_in_a != smaller_endpoint_in_a) return false;
  bridge = Edge{static_cast<Vertex>(u), static_cast<Vertex>(v)};
  return true;
}

}  // namespace

Edge BridgeFinding::decode(Vertex n, std::span<const util::BitString> sketches,
                           const model::PublicCoins& /*coins*/) const {
  // Parse all sketches.  A sum cut short reads as 0: the length check
  // keeps a truncated payload off the reader's overrun assert.
  std::vector<Edge> sampled;
  std::vector<std::uint64_t> sums(n);
  for (Vertex v = 0; v < n; ++v) {
    util::BitReader reader(sketches[v]);
    read_report(reader, v, n,
                [&](Vertex w) { sampled.push_back(Edge{v, w}); });
    sums[v] = reader.bits_remaining() >= 64 ? reader.get_bits(64) : 0;
  }
  const Graph s = Graph::from_edges(n, sampled);

  // Candidate partitions: the components of the sampled graph, or — when
  // the sampled graph is connected because the bridge itself was sampled —
  // the two sides of each of its cut edges.
  std::vector<std::vector<bool>> partitions;
  const graph::Components comps = graph::connected_components(s);
  if (comps.count == 2) {
    std::vector<bool> in_a(n, false);
    for (Vertex v = 0; v < n; ++v) in_a[v] = comps.label[v] == 0;
    partitions.push_back(std::move(in_a));
  } else if (comps.count == 1) {
    for (const Edge& cut : cut_edges(s)) {
      // Remove `cut` and 2-color by component.
      std::vector<Edge> remaining;
      for (const Edge& e : s.edges()) {
        if (e.normalized() != cut.normalized()) remaining.push_back(e);
      }
      const Graph split = Graph::from_edges(n, remaining);
      const graph::Components sc = graph::connected_components(split);
      if (sc.count != 2) continue;
      std::vector<bool> in_a(n, false);
      for (Vertex v = 0; v < n; ++v) in_a[v] = sc.label[v] == sc.label[cut.u];
      partitions.push_back(std::move(in_a));
    }
  }

  // A spurious cut edge of the sampled graph (e.g. a degree-1 vertex in a
  // sparse cluster) yields a 1-vs-rest partition whose sum also decodes to
  // a crossing edge — its own.  The true cluster partition is balanced, so
  // try candidates in order of decreasing smaller-side size.
  std::stable_sort(partitions.begin(), partitions.end(),
                   [n](const std::vector<bool>& a, const std::vector<bool>& b) {
                     auto min_side = [n](const std::vector<bool>& part) {
                       std::uint32_t count = 0;
                       for (Vertex v = 0; v < n; ++v) count += part[v];
                       return std::min(count, n - count);
                     };
                     return min_side(a) > min_side(b);
                   });

  for (const std::vector<bool>& in_a : partitions) {
    std::uint64_t total = 0;
    for (Vertex v = 0; v < n; ++v) {
      if (in_a[v]) total += sums[v];
    }
    Edge bridge{0, 0};
    // +T: smaller endpoint in A; -T: larger endpoint in A.
    if (try_decode(total, n, in_a, /*smaller_endpoint_in_a=*/true, bridge)) {
      return bridge;
    }
    if (try_decode(0 - total, n, in_a, /*smaller_endpoint_in_a=*/false,
                   bridge)) {
      return bridge;
    }
  }
  return Edge{0, 0};  // failure sentinel
}

}  // namespace ds::protocols
