#include "lowerbound/dmm.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <span>

namespace ds::lowerbound {

using graph::Edge;
using graph::Graph;
using graph::Matching;
using graph::Vertex;

DmmParameters dmm_parameters(const rs::RsGraph& base, std::uint64_t k) {
  DmmParameters p;
  p.big_n = base.num_vertices();
  p.r = base.r();
  p.t = base.t();
  p.k = k;
  p.n = static_cast<std::uint32_t>(p.big_n - 2 * p.r + 2 * p.r * k);
  return p;
}

EdgeBits::EdgeBits(std::uint64_t k, std::uint64_t t, std::uint64_t r)
    : k_(k), t_(t), r_(r),
      words_(static_cast<std::size_t>((k * t * r + 63) / 64), 0) {}

std::uint64_t EdgeBits::pattern(std::uint64_t i, std::uint64_t j) const {
  assert(r_ <= 64);
  if (r_ == 0) return 0;
  const std::size_t start = index(i, j, 0);
  const std::size_t word = start >> 6;
  const unsigned offset = static_cast<unsigned>(start & 63);
  std::uint64_t p = words_[word] >> offset;
  // A pattern straddling a word boundary takes its high part from the
  // next word (offset > 0 there, so the shift stays below 64).
  if (offset + r_ > 64) p |= words_[word + 1] << (64 - offset);
  return r_ == 64 ? p : p & ((std::uint64_t{1} << r_) - 1);
}

std::uint64_t EdgeBits::count() const {
  std::uint64_t total = 0;
  for (const std::uint64_t w : words_) {
    total += static_cast<std::uint64_t>(std::popcount(w));
  }
  return total;
}

EdgeBits EdgeBits::random(std::uint64_t k, std::uint64_t t, std::uint64_t r,
                          util::Rng& rng) {
  EdgeBits bits(k, t, r);
  // One next_bit() per bit, in index order: the draw sequence is part of
  // what a seed pins (tests/lowerbound/dmm_golden_test.cpp).
  const std::uint64_t total = bits.total_bits();
  for (std::uint64_t idx = 0; idx < total; ++idx) {
    bits.words_[idx >> 6] |= static_cast<std::uint64_t>(rng.next_bit())
                             << (idx & 63);
  }
  return bits;
}

EdgeBits EdgeBits::from_mask(std::uint64_t k, std::uint64_t t, std::uint64_t r,
                             std::uint64_t mask) {
  const std::uint64_t total = k * t * r;
  assert(total <= 64);
  EdgeBits bits(k, t, r);
  if (total > 0) {
    bits.words_[0] =
        total == 64 ? mask : mask & ((std::uint64_t{1} << total) - 1);
  }
  return bits;
}

Matching DmmInstance::all_surviving_special() const {
  Matching all;
  for (const Matching& m : special_surviving) {
    all.insert(all.end(), m.begin(), m.end());
  }
  return all;
}

DmmInstance build_dmm(const rs::RsGraph& base, std::uint64_t k,
                      std::size_t j_star, EdgeBits bits,
                      std::vector<Vertex> sigma) {
  DmmInstance inst;
  inst.params = dmm_parameters(base, k);
  inst.base = &base;
  inst.j_star = j_star;
  inst.sigma = std::move(sigma);
  inst.bits = std::move(bits);

  const DmmParameters& p = inst.params;
  assert(j_star < p.t);
  assert(inst.sigma.size() == p.n);
  assert(inst.bits.total_bits() == p.k * p.t * p.r);

  // V* (sorted base labels) and each base vertex's role.
  const std::vector<Vertex> v_star = base.matching_vertices(j_star);
  assert(v_star.size() == 2 * p.r);
  // position of a base vertex: in V* (index into v_star) or among publics.
  std::vector<std::uint32_t> star_pos(p.big_n, 0xffffffffu);
  for (std::size_t l = 0; l < v_star.size(); ++l)
    star_pos[v_star[l]] = static_cast<std::uint32_t>(l);

  inst.public_final.clear();
  std::vector<std::uint32_t> public_pos(p.big_n, 0xffffffffu);
  {
    std::uint32_t next = 0;
    for (Vertex b = 0; b < p.big_n; ++b) {
      if (star_pos[b] == 0xffffffffu) public_pos[b] = next++;
    }
    assert(next == p.num_public());
  }
  inst.public_final.resize(p.num_public());
  for (Vertex b = 0; b < p.big_n; ++b) {
    if (public_pos[b] != 0xffffffffu) {
      inst.public_final[public_pos[b]] = inst.sigma[public_pos[b]];
    }
  }

  inst.unique_final.assign(p.k, {});
  for (std::uint64_t i = 0; i < p.k; ++i) {
    inst.unique_final[i].resize(2 * p.r);
    for (std::uint64_t l = 0; l < 2 * p.r; ++l) {
      inst.unique_final[i][l] =
          inst.sigma[p.num_public() + i * 2 * p.r + l];
    }
  }

  inst.is_public.assign(p.n, false);
  for (Vertex v : inst.public_final) inst.is_public[v] = true;

  // labels[i * N + b]: final label of base vertex b in copy i. Public
  // vertices share one label across copies; V* vertices get copy i's.
  const std::size_t big_n = static_cast<std::size_t>(p.big_n);
  std::vector<Vertex> labels(static_cast<std::size_t>(p.k) * big_n);
  for (Vertex b = 0; b < p.big_n; ++b) {
    if (public_pos[b] != 0xffffffffu) {
      labels[b] = inst.public_final[public_pos[b]];
    }
  }
  for (std::uint64_t i = 0; i < p.k; ++i) {
    Vertex* row = labels.data() + i * big_n;
    if (i > 0) std::copy_n(labels.data(), big_n, row);
    for (std::size_t l = 0; l < v_star.size(); ++l) {
      row[v_star[l]] = inst.unique_final[i][l];
    }
  }

  // The union graph: every edge is written, and the cursor advances past
  // the survivors only. One spare slot takes the writes that follow the
  // last survivor.
  const std::size_t surviving = inst.bits.count();
  std::vector<Edge> union_edges(surviving + 1);
  std::size_t next = 0;
  for (std::uint64_t i = 0; i < p.k; ++i) {
    const Vertex* row = labels.data() + i * big_n;
    for (std::uint64_t j = 0; j < p.t; ++j) {
      const Matching& mj = base.matchings[j];
      for (std::uint64_t e = 0; e < p.r; ++e) {
        union_edges[next] = {row[mj[e].u], row[mj[e].v]};
        next += static_cast<std::size_t>(inst.bits.get(i, j, e));
      }
    }
  }
  assert(next == surviving);

  // The special matchings: copy i's image of M^RS_{j*}, before and after
  // the drop.
  inst.special_full.assign(p.k, {});
  inst.special_surviving.assign(p.k, {});
  const Matching& special = base.matchings[j_star];
  for (std::uint64_t i = 0; i < p.k; ++i) {
    const Vertex* row = labels.data() + i * big_n;
    for (std::uint64_t e = 0; e < p.r; ++e) {
      const Edge mapped{row[special[e].u], row[special[e].v]};
      inst.special_full[i].push_back(mapped);
      if (inst.bits.get(i, j_star, e)) {
        inst.special_surviving[i].push_back(mapped);
      }
    }
  }
  inst.g = Graph::from_edges(
      p.n, std::span<const Edge>(union_edges).first(surviving));
  return inst;
}

DmmInstance sample_dmm(const rs::RsGraph& base, std::uint64_t k,
                       util::Rng& rng) {
  const DmmParameters p = dmm_parameters(base, k);
  const std::size_t j_star = static_cast<std::size_t>(rng.next_below(p.t));
  EdgeBits bits = EdgeBits::random(p.k, p.t, p.r, rng);
  std::vector<Vertex> sigma = rng.permutation(p.n);
  return build_dmm(base, k, j_star, std::move(bits), std::move(sigma));
}

std::size_t count_unique_unique(const DmmInstance& inst,
                                std::span<const Edge> m) {
  std::size_t count = 0;
  for (const Edge& e : m) {
    if (!inst.is_public[e.u] && !inst.is_public[e.v]) ++count;
  }
  return count;
}

}  // namespace ds::lowerbound
