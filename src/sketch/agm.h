// The AGM graph sketch [Ahn-Guha-McGregor SODA'12] and its spanning-forest
// referee.
//
// Every vertex v summarizes the signed incidence vector a_v over the dense
// edge-id space: a_v[{u,w}] = +1 if v == min(u,w), -1 if v == max(u,w),
// 0 otherwise.  Linearity gives the key property the paper's introduction
// leans on: for a vertex set C, sum_{v in C} a_v is supported exactly on
// the boundary edges of C — so an L0 sample of the merged sketch is an
// outgoing edge of the component, and O(log n) rounds of Boruvka connect
// the graph.  The sketch is one independent L0 sampler per Boruvka round
// (reusing a sampler across rounds would correlate it with the components
// it produced).
//
// Per-vertex size: rounds * levels * OneSparse = O(log^3 n) bits — the
// upper-bound contrast for experiment E6.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "model/coins.h"
#include "sketch/l0_sampler.h"

namespace ds::sketch {

class AgmVertexSketch {
 public:
  /// Shape for graphs on n vertices; `rounds` independent samplers
  /// (default: enough for Boruvka, ~log2 n + 3).  Distinct `tag`s derive
  /// independent sketch groups from the same coins (needed when a
  /// protocol keeps several AGM sketches at once, e.g. forest peeling or
  /// per-weight-class connectivity).
  static AgmVertexSketch make(const model::PublicCoins& coins,
                              graph::Vertex n, unsigned rounds = 0,
                              std::uint64_t tag = 0xA6A6);

  /// Exactly make(), but served from a small thread-local cache of zero
  /// sketch templates keyed by (coins.seed(), n, rounds, tag).  Shape
  /// derivation (hash coefficients, fingerprint bases) walks the public
  /// coins once per distinct shape instead of once per vertex; the
  /// returned copy is bit-identical to a fresh make().  Protocol encode
  /// and decode loops that build one sketch per vertex should use this.
  static AgmVertexSketch make_cached(const model::PublicCoins& coins,
                                     graph::Vertex n, unsigned rounds = 0,
                                     std::uint64_t tag = 0xA6A6);

  /// Account all edges incident on v (the player-side step).  Batched:
  /// the edge-id row and sign row are materialized once and each sampler
  /// consumes the whole span per call (L0Sampler::add_batch), equivalent
  /// to add_single_edge(v, w) for each neighbor w in order.
  void add_vertex_edges(graph::Vertex v,
                        std::span<const graph::Vertex> neighbors);

  /// Account the single edge (v, w) from v's perspective, scaled. The
  /// referee uses scale = -1 to PEEL an already-recovered edge out of a
  /// sketch (linearity), which is how the k-edge-connectivity certificate
  /// extracts k successive disjoint forests.
  void add_single_edge(graph::Vertex v, graph::Vertex w,
                       std::int64_t scale = 1);

  /// Component merging (the referee-side step).
  void merge(const AgmVertexSketch& other);

  [[nodiscard]] unsigned rounds() const noexcept {
    return static_cast<unsigned>(samplers_.size());
  }
  [[nodiscard]] const L0Sampler& sampler(unsigned round) const {
    return samplers_[round];
  }

  void write(util::BitWriter& out) const;
  void read(util::BitReader& in);
  [[nodiscard]] std::size_t state_bits() const;

 private:
  AgmVertexSketch() = default;

  graph::Vertex n_ = 0;
  std::vector<L0Sampler> samplers_;
};

/// Referee: Boruvka over merged sketches. `sketches[v]` is vertex v's
/// deserialized AGM sketch.  Returns the recovered forest (edges are
/// whatever the samplers decoded — validation against the true graph is
/// the harness's job, per the paper's error model).
///
/// Decodes in place: the sketches are only read.  Each round groups the
/// vertices by component root (a counting sort, roots ascending), decodes
/// a singleton's sampler where it lies, and sums each larger component's
/// samplers into one accumulator reused across the round.  Components
/// propose in ascending root order.
struct SpanningForestDecode {
  std::vector<graph::Edge> forest;
  std::uint32_t components;  // component count at termination
};
[[nodiscard]] SpanningForestDecode agm_spanning_forest(
    graph::Vertex n, std::span<const AgmVertexSketch> sketches);

/// Default round count used by make() when rounds == 0.
[[nodiscard]] unsigned agm_default_rounds(graph::Vertex n) noexcept;

}  // namespace ds::sketch
