#include "stream/dynamic_stream.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>

#include "model/coins.h"
#include "util/bitio.h"
#include "util/rng.h"

namespace ds::stream {

using graph::Edge;
using graph::Vertex;

namespace {

/// A table of `words` words, `from` followed by zeros, on transparent
/// huge pages where the kernel grants them.  glibc maps a table of stream
/// size (~100 MB at n = 2^16) afresh on every allocation, and faulting it
/// in 4 KiB pages made a fresh state and a snapshot copy ~2x slower.
std::vector<std::uint64_t> fresh_table(std::size_t words,
                                       std::span<const std::uint64_t> from) {
  std::vector<std::uint64_t> table;
  table.reserve(words);
  // Advise the whole pages inside the allocation before any is touched.
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  void* start = table.data();
  std::size_t bytes = words * sizeof(std::uint64_t);
  if (std::align(page, page, start, bytes) != nullptr) {
    madvise(start, bytes & ~(page - 1), MADV_HUGEPAGE);
  }
  table.assign(from.begin(), from.end());
  table.resize(words);
  return table;
}

}  // namespace

DynamicConnectivity::DynamicConnectivity(Vertex n, std::uint64_t seed,
                                         unsigned rounds)
    : shape_(n > 0 ? sketch::AgmSketch::make(model::PublicCoins(seed), n,
                                             rounds)
                   : sketch::AgmSketch()),
      table_(fresh_table(std::size_t{n} * shape_.row_words(), {})) {}

DynamicConnectivity::DynamicConnectivity(const DynamicConnectivity& other)
    : shape_(other.shape_),
      table_(fresh_table(other.table_.size(), other.table_)) {}

void DynamicConnectivity::apply(const EdgeUpdate& update) {
  const Edge e = update.edge;
  const std::int64_t scale = update.insert ? +1 : -1;
  add_half_edge(e.u, e.v, scale);
  add_half_edge(e.v, e.u, scale);
}

void DynamicConnectivity::add_half_edge(Vertex v, Vertex w,
                                        std::int64_t scale) {
  assert(v != w && v < num_vertices() && w < num_vertices());
  shape_.add_single_edge(shape_.row(table_, v), v, w, scale);
}

sketch::SpanningForestDecode DynamicConnectivity::query_forest() const {
  return sketch::agm_spanning_forest(shape_, table_);
}

std::uint32_t DynamicConnectivity::query_components() const {
  return query_forest().components;
}

std::size_t DynamicConnectivity::state_bits() const {
  return std::size_t{num_vertices()} * shape_.state_bits();
}

std::uint64_t DynamicConnectivity::state_hash() const {
  // Serialize per vertex and fold the words through mix64 with a running
  // chain value, so both the word values and their order are pinned.
  std::uint64_t h = util::mix64(0x5354484153480001ULL, num_vertices());
  util::BitWriter w;
  for (Vertex v = 0; v < num_vertices(); ++v) {
    w.clear();
    sketch::write_states(shape_.row(table_, v), w);
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
