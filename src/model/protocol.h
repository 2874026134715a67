// The distributed sketching model (Section 2.1).
//
// One player per vertex.  A player's entire input is captured by
// `VertexView`: the number of vertices, its own id, its sorted neighbor
// list, and the public coins.  The encoder is a const member receiving only
// the view (and, from round 1 on, the referee's earlier broadcasts) and a
// BitWriter — by construction it cannot read the rest of the graph, other
// players' messages, or the referee's state.  The referee receives all n
// sketches plus the coins and produces the output.
//
// `Protocol<Output>` is the one protocol interface: R = num_rounds()
// rounds, with a referee broadcast between consecutive rounds.  The
// paper's model is its R = 1 case, `SketchingProtocol<Output>`, which a
// protocol implements with a plain `encode` and a 3-argument `decode`;
// the Section 1.1 remark's extra round (two-round matching and MIS,
// Luby over the broadcast congested clique) implements Protocol
// directly.  Every runner — model::run_protocol, audit::AuditedRunner,
// service::serve_protocol / play_protocol — takes a Protocol.
//
// Outputs are plain value types (Matching, VertexSet, Forest, Coloring);
// protocols are typed on their output so the harness can score them with
// the right validator.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/matching.h"
#include "model/coins.h"
#include "util/bitio.h"

namespace ds::model {

struct VertexView {
  graph::Vertex n;                           // |V|
  graph::Vertex id;                          // this player's vertex
  std::span<const graph::Vertex> neighbors;  // sorted
  const PublicCoins* coins;                  // shared random string
  /// For weighted inputs: weights[i] is the weight of the edge to
  /// neighbors[i]. Empty on unweighted runs.
  std::span<const std::uint32_t> neighbor_weights{};

  [[nodiscard]] std::uint32_t degree() const noexcept {
    return static_cast<std::uint32_t>(neighbors.size());
  }
  /// True iff this view carries per-edge weights.  An isolated vertex has
  /// no incident edges and hence no weights, so it reports unweighted on
  /// weighted and unweighted runs alike — deliberately: a degree-zero
  /// player's view is identical in both cases, and letting it distinguish
  /// them would hand encoders information that is not in the view (the
  /// locality rule of Section 2.1).  The previous definition
  /// (`!neighbor_weights.empty() || neighbors.empty()`) got this wrong in
  /// both directions, claiming weighted() == true for isolated vertices
  /// on unweighted runs.  Regression: tests/model/vertex_view_test.cpp.
  [[nodiscard]] bool weighted() const noexcept {
    return !neighbor_weights.empty();
  }
};

/// An R-round protocol with output type Output (R = num_rounds()):
///
///   round 0:  every player sends a sketch of its view;
///   referee:  computes a broadcast from the sketches so far;
///   round i:  every player sends a sketch of (view, broadcasts 0..i-1);
///   finally:  the referee decodes from every round's sketches.
///
/// Broadcast bits are "downlink": runners report them apart from the
/// per-player sketch cost the lower bound speaks about.
template <typename Output>
class Protocol {
 public:
  virtual ~Protocol() = default;

  [[nodiscard]] virtual unsigned num_rounds() const = 0;

  /// Player algorithm for the given round; `broadcasts` has one entry per
  /// completed earlier round.
  virtual void encode_round(const VertexView& view, unsigned round,
                            std::span<const util::BitString> broadcasts,
                            util::BitWriter& out) const = 0;

  /// Referee: produce the broadcast after `round` completes.  Only called
  /// for round < num_rounds() - 1. rounds_so_far[i][v] is vertex v's
  /// round-i sketch.
  [[nodiscard]] virtual util::BitString make_broadcast(
      unsigned round, graph::Vertex n,
      std::span<const std::vector<util::BitString>> rounds_so_far,
      const PublicCoins& coins) const = 0;

  /// Referee: final output from all rounds' sketches.
  [[nodiscard]] virtual Output decode_rounds(
      graph::Vertex n,
      std::span<const std::vector<util::BitString>> all_rounds,
      std::span<const util::BitString> broadcasts,
      const PublicCoins& coins) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// One-round simultaneous protocol with output type Output: the R = 1
/// case, written as one encode and one decode.
template <typename Output>
class SketchingProtocol : public Protocol<Output> {
 public:
  /// The player algorithm: write this vertex's sketch.
  virtual void encode(const VertexView& view, util::BitWriter& out) const = 0;

  /// The referee algorithm: sketches[v] is vertex v's message.
  [[nodiscard]] virtual Output decode(
      graph::Vertex n, std::span<const util::BitString> sketches,
      const PublicCoins& coins) const = 0;

  [[nodiscard]] unsigned num_rounds() const final { return 1; }

  void encode_round(const VertexView& view, unsigned /*round*/,
                    std::span<const util::BitString> /*broadcasts*/,
                    util::BitWriter& out) const final {
    encode(view, out);
  }

  /// Never called: a one-round run has no broadcast.
  [[nodiscard]] util::BitString make_broadcast(
      unsigned, graph::Vertex, std::span<const std::vector<util::BitString>>,
      const PublicCoins&) const final {
    return {};
  }

  [[nodiscard]] Output decode_rounds(
      graph::Vertex n,
      std::span<const std::vector<util::BitString>> all_rounds,
      std::span<const util::BitString> /*broadcasts*/,
      const PublicCoins& coins) const final {
    return decode(n, all_rounds[0], coins);
  }
};

/// Common output types.
using MatchingOutput = graph::Matching;             // maximal matching
using VertexSetOutput = std::vector<graph::Vertex>; // MIS
using ForestOutput = std::vector<graph::Edge>;      // spanning forest
using ColoringOutput = std::vector<std::uint32_t>;  // color per vertex

/// Exact bit accounting for one run.
struct CommStats {
  std::size_t max_bits = 0;    // the paper's cost measure (worst player)
  std::size_t total_bits = 0;  // summed over players
  std::size_t num_players = 0;

  [[nodiscard]] double avg_bits() const noexcept {
    return num_players == 0
               ? 0.0
               : static_cast<double>(total_bits) /
                     static_cast<double>(num_players);
  }
  void record(std::size_t bits) noexcept {
    max_bits = bits > max_bits ? bits : max_bits;
    total_bits += bits;
    ++num_players;
  }
  void merge(const CommStats& other) noexcept {
    max_bits = other.max_bits > max_bits ? other.max_bits : max_bits;
    total_bits += other.total_bits;
    num_players += other.num_players;
  }
};

}  // namespace ds::model
