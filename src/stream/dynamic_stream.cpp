#include "stream/dynamic_stream.h"

#include <algorithm>
#include <cassert>

#include "util/bitio.h"
#include "util/rng.h"

namespace ds::stream {

using graph::Edge;
using graph::Vertex;

DynamicConnectivity::DynamicConnectivity(Vertex n, std::uint64_t seed,
                                         unsigned rounds)
    : coins_(seed) {
  // Every vertex shares one sketch shape (same hash families and
  // fingerprint bases — AGM merging requires it), so build the shape
  // once and copy: at n >= 10^6 this replaces ~10^8 coin-stream
  // constructions with plain memcpys of zeroed state.
  sketches_.reserve(n);
  if (n > 0) {
    const auto shape = sketch::AgmVertexSketch::make(coins_, n, rounds);
    for (Vertex v = 0; v < n; ++v) sketches_.push_back(shape);
  }
}

void DynamicConnectivity::apply(const EdgeUpdate& update) {
  const Edge e = update.edge;
  const std::int64_t scale = update.insert ? +1 : -1;
  add_half_edge(e.u, e.v, scale);
  add_half_edge(e.v, e.u, scale);
}

void DynamicConnectivity::add_half_edge(Vertex v, Vertex w,
                                        std::int64_t scale) {
  assert(v != w && v < num_vertices() && w < num_vertices());
  sketches_[v].add_single_edge(v, w, scale);
}

sketch::SpanningForestDecode DynamicConnectivity::query_forest() const {
  return sketch::agm_spanning_forest(num_vertices(), sketches_);
}

std::uint32_t DynamicConnectivity::query_components() const {
  return query_forest().components;
}

std::size_t DynamicConnectivity::state_bits() const {
  std::size_t bits = 0;
  for (const auto& s : sketches_) bits += s.state_bits();
  return bits;
}

unsigned DynamicConnectivity::rounds() const noexcept {
  return sketches_.empty() ? 0 : sketches_.front().rounds();
}

std::uint64_t DynamicConnectivity::state_hash() const {
  // Serialize per vertex and fold the words through mix64 with a running
  // chain value, so both the word values and their order are pinned.
  std::uint64_t h = util::mix64(0x5354484153480001ULL, num_vertices());
  util::BitWriter w;
  for (const auto& s : sketches_) {
    w.clear();
    s.write(w);
    h = util::mix64(h, w.bit_count());
    for (const std::uint64_t word : w.words()) h = util::mix64(h, word);
  }
  return h;
}

InsertionGreedyMatching::InsertionGreedyMatching(Vertex n)
    : matched_(n, false) {}

void InsertionGreedyMatching::apply(const EdgeUpdate& update) {
  const Edge e = update.edge.normalized();
  if (update.insert) {
    if (!matched_[e.u] && !matched_[e.v]) {
      matched_[e.u] = matched_[e.v] = true;
      matching_.push_back(e);
    }
    return;
  }
  // Deletion: harmless unless it removes a matched edge.
  const auto it = std::find(matching_.begin(), matching_.end(), e);
  if (it != matching_.end()) {
    valid_ = false;  // greedy state cannot be repaired in one pass
    matching_.erase(it);
    matched_[e.u] = matched_[e.v] = false;
  }
}

std::vector<EdgeUpdate> scrambled_updates(const graph::Graph& target,
                                          std::size_t spurious_pairs,
                                          util::Rng& rng) {
  std::vector<EdgeUpdate> updates;
  for (const Edge& e : target.edges()) updates.push_back({e, true});

  // Spurious pairs: edges NOT in the target, inserted then deleted. The
  // delete is appended after the insert; the interleave below preserves
  // relative order of each pair by tagging.
  const Vertex n = target.num_vertices();
  std::vector<Edge> spurious;
  std::size_t guard = 0;
  while (spurious.size() < spurious_pairs && guard < 50 * spurious_pairs + 100) {
    ++guard;
    const Vertex u = static_cast<Vertex>(rng.next_below(n));
    const Vertex v = static_cast<Vertex>(rng.next_below(n));
    if (u == v || target.has_edge(u, v)) continue;
    spurious.push_back(Edge{u, v}.normalized());
  }

  // Shuffle the inserts (real + spurious), then inject each spurious
  // delete at a random position after its insert.
  for (const Edge& e : spurious) updates.push_back({e, true});
  rng.shuffle(std::span<EdgeUpdate>(updates));
  for (const Edge& e : spurious) {
    // Find the insert's position, then insert the delete after it.
    std::size_t pos = 0;
    for (std::size_t i = 0; i < updates.size(); ++i) {
      if (updates[i].insert && updates[i].edge == e) {
        pos = i;
        break;
      }
    }
    const std::size_t at =
        pos + 1 + rng.next_below(updates.size() - pos);
    updates.insert(updates.begin() + static_cast<std::ptrdiff_t>(at),
                   {e, false});
  }
  return updates;
}

}  // namespace ds::stream
