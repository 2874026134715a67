#include "sketch/agm.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "graph/dsu.h"

namespace ds::sketch {

using graph::Edge;
using graph::Vertex;

unsigned agm_default_rounds(Vertex n) noexcept {
  return static_cast<unsigned>(std::bit_width(static_cast<std::uint64_t>(n))) +
         3;
}

AgmVertexSketch AgmVertexSketch::make(const model::PublicCoins& coins,
                                      Vertex n, unsigned rounds,
                                      std::uint64_t tag) {
  assert(n >= 2);
  if (rounds == 0) rounds = agm_default_rounds(n);
  AgmVertexSketch s;
  s.n_ = n;
  const std::uint64_t universe = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  s.samplers_.reserve(rounds);
  for (unsigned round = 0; round < rounds; ++round) {
    s.samplers_.push_back(
        L0Sampler::make(coins, util::mix64(tag, round), universe));
  }
  return s;
}

AgmVertexSketch AgmVertexSketch::make_cached(const model::PublicCoins& coins,
                                             Vertex n, unsigned rounds,
                                             std::uint64_t tag) {
  if (rounds == 0) rounds = agm_default_rounds(n);
  struct Entry {
    std::uint64_t seed;
    Vertex n;
    unsigned rounds;
    std::uint64_t tag;
    AgmVertexSketch tmpl;
  };
  // Bounded cache with round-robin eviction; a protocol run touches a
  // handful of distinct shapes, so capacity 16 is generous.  thread_local:
  // encodes run on pool workers and the templates are derived purely from
  // the arguments, so worker-privacy cannot change any result.
  constexpr std::size_t kCapacity = 16;
  thread_local std::vector<Entry> cache;
  thread_local std::size_t next_evict = 0;
  for (const Entry& e : cache) {
    if (e.seed == coins.seed() && e.n == n && e.rounds == rounds &&
        e.tag == tag) {
      return e.tmpl;
    }
  }
  AgmVertexSketch tmpl = make(coins, n, rounds, tag);
  if (cache.size() < kCapacity) {
    cache.push_back(Entry{coins.seed(), n, rounds, tag, tmpl});
  } else {
    cache[next_evict] = Entry{coins.seed(), n, rounds, tag, tmpl};
    next_evict = (next_evict + 1) % kCapacity;
  }
  return tmpl;
}

void AgmVertexSketch::add_vertex_edges(Vertex v,
                                       std::span<const Vertex> neighbors) {
  // Materialize the edge-id and sign rows once, then stream each row
  // through every sampler's batched path.  Equivalent in every written
  // bit to the per-edge loop (add_batch preserves per-element order).
  thread_local std::vector<std::uint64_t> ids;
  thread_local std::vector<std::int64_t> signs;
  ids.resize(neighbors.size());
  signs.resize(neighbors.size());
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    ids[i] = graph::pair_id(n_, v, neighbors[i]);
    signs[i] = v < neighbors[i] ? +1 : -1;
  }
  for (L0Sampler& sampler : samplers_) sampler.add_batch(ids, signs);
}

void AgmVertexSketch::add_single_edge(Vertex v, Vertex w, std::int64_t scale) {
  const std::uint64_t id = graph::pair_id(n_, v, w);
  const std::int64_t sign = (v < w ? +1 : -1) * scale;
  for (L0Sampler& sampler : samplers_) sampler.add(id, sign);
}

void AgmVertexSketch::merge(const AgmVertexSketch& other) {
  assert(n_ == other.n_ && samplers_.size() == other.samplers_.size());
  for (std::size_t i = 0; i < samplers_.size(); ++i)
    samplers_[i].merge(other.samplers_[i]);
}

void AgmVertexSketch::write(util::BitWriter& out) const {
  for (const L0Sampler& sampler : samplers_) sampler.write(out);
}

void AgmVertexSketch::read(util::BitReader& in) {
  for (L0Sampler& sampler : samplers_) sampler.read(in);
}

std::size_t AgmVertexSketch::state_bits() const {
  std::size_t bits = 0;
  for (const L0Sampler& sampler : samplers_) bits += sampler.state_bits();
  return bits;
}

SpanningForestDecode agm_spanning_forest(
    Vertex n, std::span<const AgmVertexSketch> sketches) {
  constexpr Vertex kLookahead = 4;
  assert(sketches.size() == n);
  const unsigned rounds = sketches.empty() ? 0 : sketches.front().rounds();

  graph::Dsu dsu(n);
  SpanningForestDecode result;
  // Per round, component c's members are members[start[c] .. start[c+1])
  // in vertex order, for every vertex id c (empty unless c is a root).
  std::vector<Vertex> root_of(n);
  std::vector<Vertex> start(std::size_t{n} + 1);
  std::vector<Vertex> cursor(n);
  std::vector<Vertex> members(n);
  for (unsigned round = 0; round < rounds && dsu.num_sets() > 1; ++round) {
    std::fill(start.begin(), start.end(), Vertex{0});
    for (Vertex v = 0; v < n; ++v) {
      root_of[v] = dsu.find(v);
      ++start[root_of[v] + 1];
    }
    for (Vertex c = 0; c < n; ++c) {
      start[c + 1] += start[c];
      cursor[c] = start[c];
    }
    for (Vertex v = 0; v < n; ++v) members[cursor[root_of[v]]++] = v;

    // Boruvka step: each component, in ascending root order, proposes one
    // outgoing edge from the sum of its members' samplers.  The sum is
    // exact field addition, so its words do not depend on the order the
    // members are added in.  Each sampler's state is its own allocation,
    // so the walk prefetches kLookahead samplers ahead to overlap their
    // cache misses.
    L0Sampler sum = sketches.front().sampler(round);
    for (Vertex root = 0; root < n; ++root) {
      if (n - root > kLookahead) {
        sketches[root + kLookahead].sampler(round).prefetch();
      }
      const Vertex lo = start[root];
      const Vertex hi = start[root + 1];
      if (lo == hi) continue;
      const L0Sampler* sampler = &sketches[root].sampler(round);
      if (hi - lo > 1) {
        sum = sketches[members[lo]].sampler(round);
        for (Vertex i = lo + 1; i < hi; ++i) {
          if (hi - i > kLookahead) {
            sketches[members[i + kLookahead]].sampler(round).prefetch();
          }
          sum.merge(sketches[members[i]].sampler(round));
        }
        sampler = &sum;
      }
      const std::optional<Recovered> sample = sampler->decode();
      if (!sample.has_value()) continue;
      if (sample->count != 1 && sample->count != -1) continue;  // corrupt
      const Edge e = graph::pair_from_id(n, sample->index);
      if (dsu.unite(e.u, e.v)) result.forest.push_back(e);
    }
  }
  result.components = dsu.num_sets();
  return result;
}

}  // namespace ds::sketch
