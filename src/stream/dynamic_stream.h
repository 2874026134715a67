// Dynamic (turnstile) graph streams on top of the same linear sketches.
//
// Section 1.1 contrasts the sketching lower bounds with streaming: linear
// sketches ARE dynamic-stream algorithms (a linear summary absorbs edge
// deletions as subtractions), which is exactly why the [AKLY16]/[CDK19]
// streaming lower bounds the paper cites translate to *linear* sketches
// while Theorems 1-2 are needed for general ones.  This module makes the
// correspondence executable:
//
//  * DynamicConnectivity — processes inserts AND deletes with n *
//    O(log^3 n) bits of state, answering spanning-forest / component
//    queries at any point (AGM sketches, incremental updates).
//  * InsertionGreedyMatching — the classic O(n)-memory insertion-only
//    maximal matching, which deletions break (demonstrated in tests):
//    the asymmetry motivating the dynamic-stream matching lower bounds.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.h"
#include "graph/matching.h"
#include "model/coins.h"
#include "sketch/agm.h"

namespace ds::stream {

struct EdgeUpdate {
  graph::Edge edge;
  bool insert = true;  // false: delete
};

/// Turnstile connectivity: per-vertex AGM sketches updated in O(log^2 n)
/// field operations per stream element.
class DynamicConnectivity {
 public:
  /// `seed` keys the sketch randomness (a stream algorithm's private
  /// coins must be independent of the stream).  `rounds` is the number of
  /// independent per-vertex samplers — the Boruvka depth the state can
  /// support: 0 means agm_default_rounds(n) (full O(log n) depth, exact
  /// whp), smaller values trade query completeness for an `rounds`-fold
  /// smaller memory footprint, which is what lets the stream ingestion
  /// workloads hold n >= 10^6 vertices resident (docs/STREAMING.md).
  DynamicConnectivity(graph::Vertex n, std::uint64_t seed,
                      unsigned rounds = 0);

  void apply(const EdgeUpdate& update);
  void insert(graph::Vertex u, graph::Vertex v) { apply({{u, v}, true}); }
  void remove(graph::Vertex u, graph::Vertex v) { apply({{u, v}, false}); }

  /// One endpoint's half of apply(): account edge {v, w} in v's sketch
  /// only, scaled +1 (insert) or -1 (delete).  apply(u, v) is exactly
  /// add_half_edge(u, v, s) followed by add_half_edge(v, u, s), and the
  /// field operations commute, so a vertex-sharded ingestor (each shard
  /// owning the half-edges of its own vertex range; src/streamio/) lands
  /// bit-identical state in any execution order.
  void add_half_edge(graph::Vertex v, graph::Vertex w, std::int64_t scale);

  /// Decode a spanning forest of the current graph.  The decode reads the
  /// sketches in place and allocates only O(n) words of bookkeeping plus
  /// one sampler, so a query adds no copy of the state; the state is
  /// untouched and can keep absorbing updates.
  [[nodiscard]] sketch::SpanningForestDecode query_forest() const;
  [[nodiscard]] std::uint32_t query_components() const;

  [[nodiscard]] graph::Vertex num_vertices() const noexcept {
    return static_cast<graph::Vertex>(sketches_.size());
  }
  /// Total sketch state in bits (the algorithm's memory footprint).
  [[nodiscard]] std::size_t state_bits() const;

  /// Samplers per vertex (the Boruvka depth queries can reach).
  [[nodiscard]] unsigned rounds() const noexcept;

  /// Order-sensitive 64-bit digest of the serialized sketch state, the
  /// equality witness for the parallel-ingestion audits: two runs with
  /// equal hashes hold (up to collision) identical sketch words, hence
  /// identical answers to every future query.
  [[nodiscard]] std::uint64_t state_hash() const;

 private:
  model::PublicCoins coins_;
  std::vector<sketch::AgmVertexSketch> sketches_;
};

/// Insertion-only greedy maximal matching (one pass, O(n log n) bits).
/// `apply` with a delete for a matched edge invalidates the state; the
/// class tracks that honestly via `valid()` instead of pretending.
class InsertionGreedyMatching {
 public:
  explicit InsertionGreedyMatching(graph::Vertex n);

  void apply(const EdgeUpdate& update);

  [[nodiscard]] const graph::Matching& matching() const noexcept {
    return matching_;
  }
  /// False once a deletion removed a matched edge — the single-pass
  /// greedy cannot repair itself (the motivation for sketch-based
  /// matchings, and the regime of the paper's lower bound).
  [[nodiscard]] bool valid() const noexcept { return valid_; }

 private:
  std::vector<bool> matched_;
  graph::Matching matching_;
  bool valid_ = true;
};

/// A random update sequence whose final graph is `target`: inserts and
/// spurious insert+delete pairs interleaved. For tests/benches.
[[nodiscard]] std::vector<EdgeUpdate> scrambled_updates(
    const graph::Graph& target, std::size_t spurious_pairs, util::Rng& rng);

}  // namespace ds::stream
