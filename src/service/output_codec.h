// Serialization of referee outputs for the kResult broadcast.
//
// The model's uplink payloads are already BitStrings; the decoded Output
// is an ordinary value type, so sending it back to the players needs a
// codec per output type.  Encodings reuse util/bitio (gamma-length lists,
// fixed-width ints) so result bytes obey the same exact-bit discipline as
// sketches.  Every output type of a protocol in src/protocols/ has a
// specialization — the audit cross-check runs each zoo protocol through
// the full wire session including this result hop.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "graph/densest.h"
#include "graph/graph.h"
#include "util/bitio.h"

namespace ds::service {

template <typename Output>
struct OutputCodec;  // specialized per output type; no primary definition

template <>
struct OutputCodec<std::uint32_t> {
  static void encode(const std::uint32_t& value, util::BitWriter& out) {
    out.put_bits(value, 32);
  }
  static std::uint32_t decode(util::BitReader& in) {
    return static_cast<std::uint32_t>(in.get_bits(32));
  }
};

template <>
struct OutputCodec<std::uint64_t> {
  static void encode(const std::uint64_t& value, util::BitWriter& out) {
    out.put_bits(value, 64);
  }
  static std::uint64_t decode(util::BitReader& in) { return in.get_bits(64); }
};

template <>
struct OutputCodec<double> {
  static void encode(const double& value, util::BitWriter& out) {
    out.put_bits(std::bit_cast<std::uint64_t>(value), 64);
  }
  static double decode(util::BitReader& in) {
    return std::bit_cast<double>(in.get_bits(64));
  }
};

template <>
struct OutputCodec<graph::Edge> {
  static void encode(const graph::Edge& e, util::BitWriter& out) {
    out.put_bits(e.u, 32);
    out.put_bits(e.v, 32);
  }
  static graph::Edge decode(util::BitReader& in) {
    graph::Edge e{};
    e.u = static_cast<graph::Vertex>(in.get_bits(32));
    e.v = static_cast<graph::Vertex>(in.get_bits(32));
    return e;
  }
};

/// Covers Matching, ForestOutput, and k-connectivity certificates alike.
template <>
struct OutputCodec<std::vector<graph::Edge>> {
  static void encode(const std::vector<graph::Edge>& edges,
                     util::BitWriter& out) {
    out.put_gamma(edges.size() + 1);  // gamma cannot encode zero
    for (const graph::Edge& e : edges) OutputCodec<graph::Edge>::encode(e, out);
  }
  static std::vector<graph::Edge> decode(util::BitReader& in) {
    // A hostile count must not drive allocation: a well-formed list has
    // 64 bits left per edge (get_span_length's clamp).
    const std::uint64_t count = in.get_span_length(64);
    std::vector<graph::Edge> edges;
    edges.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      edges.push_back(OutputCodec<graph::Edge>::decode(in));
    }
    return edges;
  }
};

/// Covers VertexSetOutput (MIS) and ColoringOutput alike.
template <>
struct OutputCodec<std::vector<std::uint32_t>> {
  static void encode(const std::vector<std::uint32_t>& values,
                     util::BitWriter& out) {
    out.put_u32_span(values, 32);
  }
  static std::vector<std::uint32_t> decode(util::BitReader& in) {
    return in.get_u32_span(32);
  }
};

template <>
struct OutputCodec<graph::Graph> {
  static void encode(const graph::Graph& g, util::BitWriter& out) {
    out.put_bits(g.num_vertices(), 32);
    OutputCodec<std::vector<graph::Edge>>::encode(g.edges(), out);
  }
  static graph::Graph decode(util::BitReader& in) {
    const auto n = static_cast<graph::Vertex>(in.get_bits(32));
    std::vector<graph::Edge> edges =
        OutputCodec<std::vector<graph::Edge>>::decode(in);
    // from_edges only asserts its input; drop what a hostile frame can
    // claim, as decode_reported_graph does.
    std::erase_if(edges, [n](const graph::Edge& e) {
      return e.u >= n || e.v >= n || e.u == e.v;
    });
    return graph::Graph::from_edges(n, edges);
  }
};

template <>
struct OutputCodec<graph::DensestResult> {
  static void encode(const graph::DensestResult& r, util::BitWriter& out) {
    OutputCodec<std::vector<std::uint32_t>>::encode(r.subset, out);
    OutputCodec<double>::encode(r.density, out);
  }
  static graph::DensestResult decode(util::BitReader& in) {
    graph::DensestResult r;
    r.subset = OutputCodec<std::vector<std::uint32_t>>::decode(in);
    r.density = OutputCodec<double>::decode(in);
    return r;
  }
};

}  // namespace ds::service
