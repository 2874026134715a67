// Shared machinery for budget-constrained one-round protocols, and the
// one codec for the neighbor report most of the protocol zoo sends.
//
// The lower-bound experiments sweep a per-player budget b and ask how well
// a natural protocol family can do.  The family implemented here is
// "random edge reporting": each vertex spends its budget on as many
// uniformly-chosen incident edges as fit (all of them when the budget
// allows — which is the point: on D_MM a unique vertex cannot know which
// of its ~r incident edges is the one that matters, so nothing smarter is
// available to it, exactly the intuition Lemma 3.5 formalizes).
//
// Encoding: gamma-coded count, then neighbor ids at ceil(log2 n) bits.
// The referee keeps an id w from sender v only if w < n and w != v, and
// clamps the count to the ids the message's remaining bits can hold
// (BitReader::get_span_length), so garbage never names a vertex outside
// the graph, a self-loop, or a long loop.  The referee unions all reports
// into a subgraph G' of G.  Everything that sends this format (the
// budgeted and sampling protocols, needle, bridge finding, coloring, the
// two-round matchings and MIS) writes and reads it here, beside the
// one-bit-per-vertex broadcast of the multi-round protocols.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "model/protocol.h"

namespace ds::protocols {

/// Max number of neighbor ids that fit in `budget_bits` (accounting for
/// the gamma-coded count header).
[[nodiscard]] std::size_t edges_fitting_budget(std::size_t budget_bits,
                                               graph::Vertex n,
                                               std::size_t degree);

/// Write a report of `ids` for a graph on n vertices.
void put_report(std::span<const graph::Vertex> ids, graph::Vertex n,
                util::BitWriter& out);

/// Report `candidates`: every one, in order, when `cap` covers them all;
/// otherwise `cap` of them sampled uniformly without replacement from the
/// public-coin kEdgeSample stream under `key`, in candidate order.
void put_sampled_report(const model::VertexView& view,
                        std::span<const graph::Vertex> candidates,
                        std::size_t cap, std::uint64_t key,
                        util::BitWriter& out);

/// Read sender v's report from `reader` and call keep(w) for every
/// reported id w with w < n and w != v, in report order.
template <typename Keep>
void read_report(util::BitReader& reader, graph::Vertex v, graph::Vertex n,
                 Keep&& keep) {
  const unsigned width = util::bit_width_for(n);
  const std::uint64_t count = reader.get_span_length(width);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto w = static_cast<graph::Vertex>(reader.get_bits(width));
    if (w < n && w != v) keep(w);
  }
}

/// Report min(degree, capacity) incident edges, sampled uniformly without
/// replacement from the public-coin stream keyed by the vertex id.
void encode_edge_report(const model::VertexView& view,
                        std::size_t budget_bits, util::BitWriter& out);

/// Union of every vertex's reported edges: the referee's knowledge G'.
[[nodiscard]] graph::Graph decode_reported_graph(
    graph::Vertex n, std::span<const util::BitString> sketches);

/// The one-bit-per-vertex broadcast: bit v is bits[v].
[[nodiscard]] util::BitString vertex_bitmap(const std::vector<bool>& bits);

/// The n bits of a vertex_bitmap broadcast; bits past its end read 0.
[[nodiscard]] std::vector<bool> read_vertex_bitmap(
    const util::BitString& bitmap, graph::Vertex n);

}  // namespace ds::protocols
