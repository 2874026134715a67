// Graph generators for workloads and tests.
//
// Besides the standard families (G(n,p), random bipartite, paths/cycles/
// cliques), this includes the footnote-1 instance from the paper's
// introduction: two dense random clusters joined by a single bridge edge —
// the example showing why O(n)-bit sketches are *not* necessary for
// spanning forest.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace ds::graph {

/// Erdos-Renyi G(n, p).
[[nodiscard]] Graph gnp(Vertex n, double p, util::Rng& rng);

/// Random bipartite graph on parts [0, left) and [left, left+right),
/// each cross pair present with probability p.
[[nodiscard]] Graph random_bipartite(Vertex left, Vertex right, double p,
                                     util::Rng& rng);

/// Path 0-1-...-(n-1).
[[nodiscard]] Graph path(Vertex n);

/// Cycle on n >= 3 vertices.
[[nodiscard]] Graph cycle(Vertex n);

/// Complete graph K_n.
[[nodiscard]] Graph complete(Vertex n);

/// The footnote-1 instance: two G(n/2, p) clusters on [0, n/2) and
/// [n/2, n), plus one uniformly random bridge edge between the clusters.
/// Returns the graph and the bridge.
struct BridgeInstance {
  Graph graph;
  Edge bridge;
};
[[nodiscard]] BridgeInstance two_clusters_with_bridge(Vertex n, double p,
                                                      util::Rng& rng);

// ---------------------------------------------------------------------
// Streaming-friendly scale-free generators (R-MAT, Chung-Lu).
//
// The stream-ingestion workloads (src/streamio/) need edge sequences at
// n >= 10^6, far past what a materialized Graph should hold just to be
// replayed once.  The generators below therefore emit edges through a
// callback — constant memory in the number of edges — and the
// materialized Graph variants are thin wrappers over the same emission
// loops, so both paths draw identical edges from identical seeds.
// ---------------------------------------------------------------------

/// Called once per generated edge.  Endpoints are distinct and < n, but
/// edges are NOT deduplicated: both families are expected-degree models
/// that naturally produce repeats (the materialized wrappers collapse
/// them via Graph::from_edges).
using EdgeSink = std::function<void(Edge)>;

/// R-MAT recursive-quadrant probabilities [Chakrabarti-Zhan-Faloutsos];
/// the fourth quadrant gets d = 1 - a - b - c.  The defaults are the
/// conventional skewed setting (Graph500 uses a similar shape).
struct RmatParams {
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;
};

/// `edges` R-MAT draws over vertices [0, n), n >= 2.  n need not be a
/// power of two: draws landing on the diagonal or outside [0, n) are
/// redrawn (the quadrant skew points at low ids, so acceptance is high).
void rmat_edges(Vertex n, std::uint64_t edges, const RmatParams& params,
                util::Rng& rng, const EdgeSink& sink);

/// Materialized R-MAT graph; same draws as rmat_edges, duplicates
/// collapsed.
[[nodiscard]] Graph rmat(Vertex n, std::uint64_t edges,
                         const RmatParams& params, util::Rng& rng);

/// Chung-Lu power-law weight table: vertex v carries weight
/// (v + 1)^(-1/(exponent - 1)), the classic choice giving an expected
/// degree sequence with tail exponent `exponent` (> 1; 2.5 is typical).
/// Built once (O(n) doubles) and shared by every sampling pass.
class PowerLawWeights {
 public:
  PowerLawWeights(Vertex n, double exponent);

  /// A vertex drawn with probability proportional to its weight
  /// (inverse-CDF binary search, O(log n)).
  [[nodiscard]] Vertex sample(util::Rng& rng) const noexcept;

  [[nodiscard]] Vertex num_vertices() const noexcept {
    return static_cast<Vertex>(cdf_.size());
  }
  [[nodiscard]] double exponent() const noexcept { return exponent_; }

 private:
  double exponent_;
  std::vector<double> cdf_;  // cdf_[v] = w_0 + ... + w_v
};

/// `edges` Chung-Lu draws: both endpoints sampled independently in
/// proportion to their weight (the "fast Chung-Lu" expected-degree
/// model), diagonal draws redrawn.
void chung_lu_edges(const PowerLawWeights& weights, std::uint64_t edges,
                    util::Rng& rng, const EdgeSink& sink);

/// Keep each edge of g independently with probability `keep_prob`
/// (the random subsampling step of distribution D_MM).
[[nodiscard]] Graph subsample_edges(const Graph& g, double keep_prob,
                                    util::Rng& rng);

/// The "needle" instance for the one-sided model (related work, Section
/// 1.3): a random bipartite graph (parts [0, left) and [left, left+right))
/// where every right vertex has degree >= 2 except ONE uniformly chosen
/// right vertex — the needle — with degree exactly 1.  In the two-sided
/// model the needle announces itself in O(log n) bits; with players on
/// the left only, finding it is hard.
struct NeedleInstance {
  Graph graph;
  Vertex left = 0;
  Edge needle;  // (left endpoint, needle right vertex)
};
[[nodiscard]] NeedleInstance needle_bipartite(Vertex left, Vertex right,
                                              double p, util::Rng& rng);

/// `clusters` disjoint near-cliques of `cluster_size` vertices each
/// (cluster c owns [c*s, (c+1)*s)); every intra-cluster pair is present
/// independently with probability `keep_prob`.  The "easy cases"
/// structured input (cluster/bounded-independence graphs, arXiv
/// 2502.21031): MM/MIS budgets should collapse here, the contrast class
/// against D_MM in the threshold sweeps.
[[nodiscard]] Graph cluster_graph(Vertex clusters, Vertex cluster_size,
                                  double keep_prob, util::Rng& rng);

/// A layered connectivity-hard instance in the style of Yu's tight
/// lower bound for distributed sketching of connectivity (arXiv
/// 2007.12323): `levels` columns of `width` vertices (level l owns
/// [l*width, (l+1)*width)); between consecutive levels a uniformly
/// random perfect matching, each matched edge surviving independently
/// with probability `keep_prob`.  The surviving graph is a union of
/// vertex-disjoint paths threading the levels — long, thin components
/// whose count concentrates nowhere, so low-budget connectivity
/// sketches cannot tell the fragmentation pattern apart.
struct LayeredInstance {
  Graph graph;
  Vertex levels = 0;
  Vertex width = 0;
};
[[nodiscard]] LayeredInstance layered_paths(Vertex levels, Vertex width,
                                            double keep_prob,
                                            util::Rng& rng);

}  // namespace ds::graph
