#include "graph/generators.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace ds::graph {

namespace {

/// Geometric skipping: enumerate each of `total` Bernoulli(p) successes in
/// expected O(p * total) time.
template <typename OnIndex>
void for_each_success(std::uint64_t total, double p, util::Rng& rng,
                      OnIndex&& on_index) {
  if (p <= 0.0 || total == 0) return;
  if (p >= 1.0) {
    for (std::uint64_t i = 0; i < total; ++i) on_index(i);
    return;
  }
  const double log1mp = std::log1p(-p);
  std::uint64_t i = 0;
  while (true) {
    const double u = 1.0 - rng.next_double();  // (0, 1]
    const double skip = std::floor(std::log(u) / log1mp);
    if (skip >= static_cast<double>(total - i)) return;
    i += static_cast<std::uint64_t>(skip);
    if (i >= total) return;
    on_index(i);
    ++i;
    if (i >= total) return;
  }
}

}  // namespace

Graph gnp(Vertex n, double p, util::Rng& rng) {
  std::vector<Edge> edges;
  const std::uint64_t pairs = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  for_each_success(pairs, p, rng, [&](std::uint64_t id) {
    edges.push_back(pair_from_id(n, id));
  });
  return Graph::from_edges(n, edges);
}

Graph random_bipartite(Vertex left, Vertex right, double p, util::Rng& rng) {
  std::vector<Edge> edges;
  const std::uint64_t pairs =
      static_cast<std::uint64_t>(left) * static_cast<std::uint64_t>(right);
  for_each_success(pairs, p, rng, [&](std::uint64_t id) {
    const Vertex l = static_cast<Vertex>(id / right);
    const Vertex r = static_cast<Vertex>(left + id % right);
    edges.push_back({l, r});
  });
  return Graph::from_edges(left + right, edges);
}

Graph path(Vertex n) {
  std::vector<Edge> edges;
  for (Vertex v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  return Graph::from_edges(n, edges);
}

Graph cycle(Vertex n) {
  assert(n >= 3);
  std::vector<Edge> edges;
  for (Vertex v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  edges.push_back({n - 1, 0});
  return Graph::from_edges(n, edges);
}

Graph complete(Vertex n) {
  std::vector<Edge> edges;
  for (Vertex u = 0; u < n; ++u)
    for (Vertex v = u + 1; v < n; ++v) edges.push_back({u, v});
  return Graph::from_edges(n, edges);
}

BridgeInstance two_clusters_with_bridge(Vertex n, double p, util::Rng& rng) {
  assert(n >= 4 && n % 2 == 0);
  const Vertex half = n / 2;
  std::vector<Edge> edges;
  const std::uint64_t cluster_pairs =
      static_cast<std::uint64_t>(half) * (half - 1) / 2;
  for_each_success(cluster_pairs, p, rng, [&](std::uint64_t id) {
    edges.push_back(pair_from_id(half, id));
  });
  for_each_success(cluster_pairs, p, rng, [&](std::uint64_t id) {
    Edge e = pair_from_id(half, id);
    edges.push_back({static_cast<Vertex>(e.u + half),
                     static_cast<Vertex>(e.v + half)});
  });
  const Edge bridge{static_cast<Vertex>(rng.next_below(half)),
                    static_cast<Vertex>(half + rng.next_below(half))};
  edges.push_back(bridge);
  return {Graph::from_edges(n, edges), bridge};
}

NeedleInstance needle_bipartite(Vertex left, Vertex right, double p,
                                util::Rng& rng) {
  assert(left >= 2 && right >= 1);
  NeedleInstance inst;
  inst.left = left;
  const Vertex n = left + right;
  const Vertex needle_right =
      static_cast<Vertex>(left + rng.next_below(right));

  std::vector<Edge> edges;
  for (Vertex r = left; r < n; ++r) {
    if (r == needle_right) continue;
    // Random edges, then top up to degree >= 2 with distinct neighbors.
    std::vector<Vertex> nbrs;
    for (Vertex l = 0; l < left; ++l) {
      if (rng.next_bernoulli(p)) nbrs.push_back(l);
    }
    while (nbrs.size() < 2) {
      const Vertex l = static_cast<Vertex>(rng.next_below(left));
      if (std::find(nbrs.begin(), nbrs.end(), l) == nbrs.end()) {
        nbrs.push_back(l);
      }
    }
    for (Vertex l : nbrs) edges.push_back({l, r});
  }
  const Vertex needle_left = static_cast<Vertex>(rng.next_below(left));
  inst.needle = Edge{needle_left, needle_right};
  edges.push_back(inst.needle);
  inst.graph = Graph::from_edges(n, edges);
  return inst;
}

void rmat_edges(Vertex n, std::uint64_t edges, const RmatParams& params,
                util::Rng& rng, const EdgeSink& sink) {
  assert(n >= 2);
  assert(params.a >= 0 && params.b >= 0 && params.c >= 0 &&
         params.a + params.b + params.c <= 1.0);
  const unsigned scale =
      static_cast<unsigned>(std::bit_width(static_cast<std::uint64_t>(n) - 1));
  const double ab = params.a + params.b;
  const double abc = ab + params.c;
  for (std::uint64_t e = 0; e < edges; ++e) {
    Vertex u = 0;
    Vertex v = 0;
    do {
      u = 0;
      v = 0;
      for (unsigned level = 0; level < scale; ++level) {
        // Quadrants (u-bit, v-bit): [0,a) -> (0,0), [a,a+b) -> (0,1),
        // [a+b,a+b+c) -> (1,0), [a+b+c,1) -> (1,1).
        const double r = rng.next_double();
        u = static_cast<Vertex>((u << 1) | (r >= ab ? 1u : 0u));
        v = static_cast<Vertex>(
            (v << 1) | ((r >= params.a && r < ab) || r >= abc ? 1u : 0u));
      }
    } while (u == v || u >= n || v >= n);
    sink(Edge{u, v});
  }
}

Graph rmat(Vertex n, std::uint64_t edges, const RmatParams& params,
           util::Rng& rng) {
  std::vector<Edge> collected;
  collected.reserve(edges);
  rmat_edges(n, edges, params, rng,
             [&](Edge e) { collected.push_back(e); });
  return Graph::from_edges(n, collected);
}

PowerLawWeights::PowerLawWeights(Vertex n, double exponent)
    : exponent_(exponent) {
  assert(n >= 2 && exponent > 1.0);
  const double alpha = 1.0 / (exponent - 1.0);
  cdf_.reserve(n);
  double total = 0.0;
  for (Vertex v = 0; v < n; ++v) {
    total += std::pow(static_cast<double>(v) + 1.0, -alpha);
    cdf_.push_back(total);
  }
}

Vertex PowerLawWeights::sample(util::Rng& rng) const noexcept {
  const double r = rng.next_double() * cdf_.back();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), r);
  const std::size_t idx =
      static_cast<std::size_t>(std::distance(cdf_.begin(), it));
  return static_cast<Vertex>(std::min(idx, cdf_.size() - 1));
}

void chung_lu_edges(const PowerLawWeights& weights, std::uint64_t edges,
                    util::Rng& rng, const EdgeSink& sink) {
  for (std::uint64_t e = 0; e < edges; ++e) {
    Vertex u = weights.sample(rng);
    Vertex v = weights.sample(rng);
    while (u == v) v = weights.sample(rng);
    sink(Edge{u, v});
  }
}

Graph subsample_edges(const Graph& g, double keep_prob, util::Rng& rng) {
  std::vector<Edge> kept;
  for (const Edge& e : g.edges()) {
    if (rng.next_bernoulli(keep_prob)) kept.push_back(e);
  }
  return Graph::from_edges(g.num_vertices(), kept);
}

Graph cluster_graph(Vertex clusters, Vertex cluster_size, double keep_prob,
                    util::Rng& rng) {
  assert(clusters >= 1 && cluster_size >= 2);
  const Vertex n = clusters * cluster_size;
  std::vector<Edge> edges;
  const std::uint64_t cluster_pairs =
      static_cast<std::uint64_t>(cluster_size) * (cluster_size - 1) / 2;
  for (Vertex c = 0; c < clusters; ++c) {
    const Vertex base = c * cluster_size;
    for_each_success(cluster_pairs, keep_prob, rng, [&](std::uint64_t id) {
      const Edge e = pair_from_id(cluster_size, id);
      edges.push_back({static_cast<Vertex>(e.u + base),
                       static_cast<Vertex>(e.v + base)});
    });
  }
  return Graph::from_edges(n, edges);
}

LayeredInstance layered_paths(Vertex levels, Vertex width, double keep_prob,
                              util::Rng& rng) {
  assert(levels >= 2 && width >= 1);
  const Vertex n = levels * width;
  std::vector<Edge> edges;
  for (Vertex l = 0; l + 1 < levels; ++l) {
    const auto perm = rng.permutation(width);
    for (Vertex i = 0; i < width; ++i) {
      if (!rng.next_bernoulli(keep_prob)) continue;
      edges.push_back({static_cast<Vertex>(l * width + i),
                       static_cast<Vertex>((l + 1) * width + perm[i])});
    }
  }
  return {Graph::from_edges(n, edges), levels, width};
}

}  // namespace ds::graph
