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
// An AgmSketch is the shape, a function of (coins, n, rounds, tag) only.
// A vertex's state is a row of its samplers' states in round order, and
// one table of n rows holds a whole graph's sketches.
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

/// Default round count used by make() when rounds == 0.
[[nodiscard]] unsigned agm_default_rounds(graph::Vertex n) noexcept;

/// state_bits() of any shape on n vertices with `rounds` samplers.
[[nodiscard]] std::size_t agm_state_bits(graph::Vertex n,
                                         unsigned rounds) noexcept;

/// row_words() of any shape on n vertices with `rounds` samplers: what a
/// table row costs, known before any shape or table is built.
[[nodiscard]] std::size_t agm_row_words(graph::Vertex n,
                                        unsigned rounds) noexcept;

class AgmSketch {
 public:
  /// The empty shape (n() == 0).
  AgmSketch() = default;

  /// Shape for graphs on n vertices; `rounds` independent samplers
  /// (default: enough for Boruvka, ~log2 n + 3).  Distinct `tag`s derive
  /// independent sketch groups from the same coins (needed when a
  /// protocol keeps several AGM sketches at once, e.g. forest peeling or
  /// per-weight-class connectivity).
  static AgmSketch make(const model::PublicCoins& coins, graph::Vertex n,
                        unsigned rounds = 0, std::uint64_t tag = 0xA6A6);

  /// Exactly make(), served from a thread-local cache of 16 fixed slots
  /// that holds shapes, never state.  The reference stays valid until 16
  /// more distinct shapes have been built on the calling thread.
  static const AgmSketch& cached(const model::PublicCoins& coins,
                                 graph::Vertex n, unsigned rounds = 0,
                                 std::uint64_t tag = 0xA6A6);

  [[nodiscard]] graph::Vertex n() const noexcept { return n_; }
  [[nodiscard]] unsigned rounds() const noexcept {
    return static_cast<unsigned>(samplers_.size());
  }
  [[nodiscard]] const L0Sampler& sampler(unsigned round) const {
    return samplers_[round];
  }
  [[nodiscard]] std::size_t sampler_words() const noexcept {
    return samplers_.empty() ? 0 : samplers_.front().state_words();
  }
  [[nodiscard]] std::size_t row_words() const noexcept {
    return rounds() * sampler_words();
  }
  [[nodiscard]] std::size_t state_bits() const noexcept {
    return agm_state_bits(n_, rounds());
  }

  /// Vertex v's row in a table, and a round's sampler state in a row, as
  /// spans of any word range (mutable iff the range is).
  template <typename Words>
  [[nodiscard]] auto row(Words&& table, graph::Vertex v) const {
    return std::span(table).subspan(v * row_words(), row_words());
  }
  template <typename Words>
  [[nodiscard]] auto sampler_state(Words&& words, unsigned round) const {
    return std::span(words).subspan(round * sampler_words(), sampler_words());
  }

  /// Account all edges incident on v into v's row (the player-side step):
  /// each sampler takes the whole edge-id row per call (add_batch), bit-
  /// identical to add_single_edge(row, v, w) for each neighbor in order.
  void add_vertex_edges(std::span<std::uint64_t> row, graph::Vertex v,
                        std::span<const graph::Vertex> neighbors) const;

  /// Account the single edge (v, w) from v's perspective, scaled. The
  /// referee uses scale = -1 to PEEL an already-recovered edge out of a
  /// sketch (linearity), which is how the k-edge-connectivity certificate
  /// extracts k successive disjoint forests.
  void add_single_edge(std::span<std::uint64_t> row, graph::Vertex v,
                       graph::Vertex w, std::int64_t scale = 1) const;

  /// The player's encode: v's sketch of `neighbors`, built in a zeroed
  /// thread-local row (no allocation once warm) and written to `out`.
  void encode(graph::Vertex v, std::span<const graph::Vertex> neighbors,
              util::BitWriter& out) const;

  /// The referee's read: every player's next sketch of this shape into a
  /// table of n rows; readers[v] advances past v's, so a protocol that
  /// sends several groups reads them group after group.
  [[nodiscard]] std::vector<std::uint64_t> read_table(
      std::span<util::BitReader> readers) const;

 private:
  graph::Vertex n_ = 0;
  std::vector<L0Sampler> samplers_;
};

/// Referee: Boruvka over merged sketches.  `table` holds the n vertex
/// rows of `shape`.  Returns the recovered forest (edges are whatever the
/// samplers decoded — validation against the true graph is the harness's
/// job, per the paper's error model).
///
/// Decodes in place: the table is only read.  Each round groups the
/// vertices by component root (a counting sort, roots ascending), decodes
/// a singleton's sampler state where it lies, and sums each larger
/// component's states into one accumulator reused across the round.
/// Components propose in ascending root order.
struct SpanningForestDecode {
  std::vector<graph::Edge> forest;
  std::uint32_t components;  // component count at termination
};
[[nodiscard]] SpanningForestDecode agm_spanning_forest(
    const AgmSketch& shape, std::span<const std::uint64_t> table);

}  // namespace ds::sketch
