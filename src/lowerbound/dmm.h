// The hard input distribution D_MM of Section 3.1.
//
// Parameters (paper notation): an (r, t)-RS graph G^RS on N vertices,
// k = t copies, n = N - 2r + 2rk final vertices.  Sampling:
//   1. pick j* uniform in [t]; V* = the 2r vertices of M^RS_{j*};
//   2. for each copy i in [k], drop each edge of G^RS independently w.p.
//      1/2 to get G_i;
//   3. draw a permutation sigma of [n] and relabel: base vertices outside
//      V* get ONE shared label across all copies (public vertices), base
//      vertices inside V* get a FRESH label per copy (unique vertices);
//   4. G = union of the relabeled G_i.
//
// `build_dmm` is the deterministic core (explicit j*, edge bits, sigma) so
// the accounting experiments can enumerate the whole distribution exactly;
// `sample_dmm` draws the random inputs.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/matching.h"
#include "rs/rs_graph.h"
#include "util/rng.h"

namespace ds::lowerbound {

struct DmmParameters {
  std::uint64_t big_n;  // N: vertices of the base RS graph
  std::uint64_t r;      // induced matching size
  std::uint64_t t;      // number of induced matchings
  std::uint64_t k;      // number of copies (k = t in the paper)
  std::uint32_t n;      // N - 2r + 2rk: vertices of the final graph

  [[nodiscard]] std::uint64_t num_public() const { return big_n - 2 * r; }
  [[nodiscard]] std::uint64_t num_unique() const { return 2 * r * k; }
  /// Claim 3.1's bound: every maximal matching has at least this many
  /// unique-unique edges (w.h.p. over D_MM).
  [[nodiscard]] std::uint64_t claim31_threshold() const { return k * r / 4; }
};

[[nodiscard]] DmmParameters dmm_parameters(const rs::RsGraph& base,
                                           std::uint64_t k);

/// Edge-survival indicators: bit (i, j, e) says whether edge e of matching
/// M^RS_j survived in copy i — the random variables the proof calls M_{i,j}.
/// Stored as packed 64-bit words, bit index (i*t + j)*r + e LSB-first; bits
/// past total_bits() stay zero.
class EdgeBits {
 public:
  EdgeBits(std::uint64_t k, std::uint64_t t, std::uint64_t r);

  [[nodiscard]] bool get(std::uint64_t i, std::uint64_t j,
                         std::uint64_t e) const {
    const std::size_t idx = index(i, j, e);
    return ((words_[idx >> 6] >> (idx & 63)) & 1) != 0;
  }
  void set(std::uint64_t i, std::uint64_t j, std::uint64_t e, bool value) {
    const std::size_t idx = index(i, j, e);
    const std::uint64_t bit = std::uint64_t{1} << (idx & 63);
    words_[idx >> 6] =
        (words_[idx >> 6] & ~bit) | (value ? bit : std::uint64_t{0});
  }

  /// The r-bit pattern of matching j in copy i, packed LSB-first — the
  /// outcome key of random variable M_{i,j}. Requires r <= 64.
  [[nodiscard]] std::uint64_t pattern(std::uint64_t i, std::uint64_t j) const;

  /// All k*t*r bits drawn fair and independent.
  static EdgeBits random(std::uint64_t k, std::uint64_t t, std::uint64_t r,
                         util::Rng& rng);
  /// Bits from an integer mask, ordered (i, j, e) lexicographic with e
  /// fastest. Requires k*t*r <= 64. For exhaustive enumeration.
  static EdgeBits from_mask(std::uint64_t k, std::uint64_t t, std::uint64_t r,
                            std::uint64_t mask);

  [[nodiscard]] std::uint64_t total_bits() const { return k_ * t_ * r_; }
  /// Number of set bits: the surviving edges, over all copies.
  [[nodiscard]] std::uint64_t count() const;

 private:
  [[nodiscard]] std::size_t index(std::uint64_t i, std::uint64_t j,
                                  std::uint64_t e) const {
    return static_cast<std::size_t>((i * t_ + j) * r_ + e);
  }
  std::uint64_t k_, t_, r_;
  std::vector<std::uint64_t> words_;
};

struct DmmInstance {
  DmmParameters params;
  const rs::RsGraph* base = nullptr;  // not owned; outlives the instance
  std::size_t j_star = 0;
  std::vector<graph::Vertex> sigma;  // permutation of [n]
  EdgeBits bits{1, 1, 1};

  graph::Graph g;  // the union graph on n vertices

  /// Classification of final labels.
  std::vector<bool> is_public;
  /// Final label of the l-th public base vertex (ascending base label).
  std::vector<graph::Vertex> public_final;
  /// unique_final[i][l]: final label of the l-th V* vertex in copy i.
  std::vector<std::vector<graph::Vertex>> unique_final;

  /// The copy of M^RS_{j*} in G_i, in final labels, BEFORE the random
  /// drop (the reduction's M^RS_{i,j*}); edge order matches base matching.
  std::vector<graph::Matching> special_full;
  /// Only the edges that survived the drop (these are the matchings M_i
  /// of Claim 3.1 — what a correct referee must output between unique
  /// vertices).
  std::vector<graph::Matching> special_surviving;

  /// Union of the surviving special matchings.
  [[nodiscard]] graph::Matching all_surviving_special() const;
};

/// Deterministic construction. sigma must be a permutation of [n].
[[nodiscard]] DmmInstance build_dmm(const rs::RsGraph& base, std::uint64_t k,
                                    std::size_t j_star, EdgeBits bits,
                                    std::vector<graph::Vertex> sigma);

/// Random sample per Section 3.1.
[[nodiscard]] DmmInstance sample_dmm(const rs::RsGraph& base, std::uint64_t k,
                                     util::Rng& rng);

/// Count matching edges whose endpoints are both unique vertices.
[[nodiscard]] std::size_t count_unique_unique(const DmmInstance& inst,
                                              std::span<const graph::Edge> m);

}  // namespace ds::lowerbound
