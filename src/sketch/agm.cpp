#include "sketch/agm.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

#include "graph/dsu.h"

namespace ds::sketch {

using graph::Edge;
using graph::Vertex;

namespace {

/// The dense edge-id space of a graph on n vertices.
std::uint64_t edge_universe(Vertex n) {
  return static_cast<std::uint64_t>(n) * (n - 1) / 2;
}

/// Start loading `words` into cache.  A hint only; it changes no value.
/// always_inline: as an ordinary call GCC finds it free of side effects
/// and deletes it.
[[gnu::always_inline]] inline void prefetch(
    std::span<const std::uint64_t> words) {
  for (std::size_t i = 0; i < words.size(); i += 8) {
    __builtin_prefetch(words.data() + i);
  }
}

}  // namespace

unsigned agm_default_rounds(Vertex n) noexcept {
  return static_cast<unsigned>(std::bit_width(static_cast<std::uint64_t>(n))) +
         3;
}

std::size_t agm_state_bits(Vertex n, unsigned rounds) noexcept {
  return std::size_t{rounds} * L0Sampler::levels_for(edge_universe(n)) *
         OneSparse::state_bits();
}

std::size_t agm_row_words(Vertex n, unsigned rounds) noexcept {
  return std::size_t{rounds} * L0Sampler::levels_for(edge_universe(n)) *
         kStateWords;
}

AgmSketch AgmSketch::make(const model::PublicCoins& coins, Vertex n,
                          unsigned rounds, std::uint64_t tag) {
  assert(n >= 2);
  if (rounds == 0) rounds = agm_default_rounds(n);
  AgmSketch s;
  s.n_ = n;
  s.samplers_.reserve(rounds);
  for (unsigned round = 0; round < rounds; ++round) {
    s.samplers_.push_back(
        L0Sampler::make(coins, util::mix64(tag, round), edge_universe(n)));
  }
  return s;
}

const AgmSketch& AgmSketch::cached(const model::PublicCoins& coins, Vertex n,
                                   unsigned rounds, std::uint64_t tag) {
  if (rounds == 0) rounds = agm_default_rounds(n);
  struct Slot {
    std::uint64_t seed = 0;
    std::uint64_t tag = 0;
    AgmSketch shape;  // n() == 0 while the slot is empty
  };
  // Round-robin eviction over fixed slots; a protocol run touches a
  // handful of distinct shapes, so 16 is generous.  thread_local: encodes
  // run on pool workers, and a shape is a pure function of its key, so
  // worker-privacy cannot change any result.
  constexpr std::size_t kSlots = 16;
  thread_local std::array<Slot, kSlots> slots;
  thread_local std::size_t next_evict = 0;
  for (const Slot& s : slots) {
    if (s.shape.n() == n && s.shape.rounds() == rounds &&
        s.seed == coins.seed() && s.tag == tag) {
      return s.shape;
    }
  }
  Slot& slot = slots[next_evict];
  next_evict = (next_evict + 1) % kSlots;
  slot = {coins.seed(), tag, make(coins, n, rounds, tag)};
  return slot.shape;
}

void AgmSketch::add_vertex_edges(std::span<std::uint64_t> row, Vertex v,
                                 std::span<const Vertex> neighbors) const {
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
  for (unsigned r = 0; r < rounds(); ++r) {
    samplers_[r].add_batch(sampler_state(row, r), ids, signs);
  }
}

void AgmSketch::add_single_edge(std::span<std::uint64_t> row, Vertex v,
                                Vertex w, std::int64_t scale) const {
  const std::uint64_t id = graph::pair_id(n_, v, w);
  const std::int64_t sign = (v < w ? +1 : -1) * scale;
  for (unsigned r = 0; r < rounds(); ++r) {
    samplers_[r].add(sampler_state(row, r), id, sign);
  }
}

void AgmSketch::encode(Vertex v, std::span<const Vertex> neighbors,
                       util::BitWriter& out) const {
  thread_local std::vector<std::uint64_t> row;
  row.assign(row_words(), 0);
  add_vertex_edges(row, v, neighbors);
  write_states(row, out);
}

std::vector<std::uint64_t> AgmSketch::read_table(
    std::span<util::BitReader> readers) const {
  assert(readers.size() == n_);
  std::vector<std::uint64_t> table(std::size_t{n_} * row_words());
  for (Vertex v = 0; v < n_; ++v) read_states(row(table, v), readers[v]);
  return table;
}

SpanningForestDecode agm_spanning_forest(const AgmSketch& shape,
                                         std::span<const std::uint64_t> table) {
  constexpr Vertex kLookahead = 4;
  const Vertex n = shape.n();
  assert(table.size() == std::size_t{n} * shape.row_words());

  graph::Dsu dsu(n);
  SpanningForestDecode result;
  // Per round, component c's members are members[start[c] .. start[c+1])
  // in vertex order, for every vertex id c (empty unless c is a root).
  std::vector<Vertex> root_of(n);
  std::vector<Vertex> start(std::size_t{n} + 1);
  std::vector<Vertex> cursor(n);
  std::vector<Vertex> members(n);
  std::vector<std::uint64_t> sum(shape.sampler_words());
  for (unsigned round = 0; round < shape.rounds() && dsu.num_sets() > 1;
       ++round) {
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
    // outgoing edge from the sum of its members' sampler states.  The sum
    // is exact field addition, so its words do not depend on the order
    // the members are added in.  A round reads one sampler state per row,
    // and a component's members lie anywhere in the table, so the walk
    // prefetches the states kLookahead roots and members ahead (without
    // the hints a stream-rmat snapshot decode takes ~1.75x as long).
    const L0Sampler& sampler = shape.sampler(round);
    const auto state_of = [&](Vertex v) {
      return shape.sampler_state(shape.row(table, v), round);
    };
    for (Vertex root = 0; root < n; ++root) {
      if (n - root > kLookahead) prefetch(state_of(root + kLookahead));
      const Vertex lo = start[root];
      const Vertex hi = start[root + 1];
      if (lo == hi) continue;
      std::span<const std::uint64_t> state = state_of(root);
      if (hi - lo > 1) {
        const std::span<const std::uint64_t> first = state_of(members[lo]);
        std::copy(first.begin(), first.end(), sum.begin());
        for (Vertex i = lo + 1; i < hi; ++i) {
          if (hi - i > kLookahead) {
            prefetch(state_of(members[i + kLookahead]));
          }
          merge_states(sum, state_of(members[i]));
        }
        state = sum;
      }
      const std::optional<Recovered> sample = sampler.decode(state);
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
