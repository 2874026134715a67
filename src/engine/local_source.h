// The in-process SketchSource: encode every vertex through the
// deterministic thread pool.
//
// A SketchSource is anything the engine can ask for a round of sketches:
//
//   std::vector<util::BitString> collect(unsigned round,
//       std::span<const util::BitString> broadcasts);
//   void deliver_broadcast(unsigned round, const util::BitString& b);
//
// LocalSource implements it by materializing VertexViews and running the
// protocol's encode_round in-process; service::ShardedWireSource
// (service/shard.h) implements the same contract over frames from the
// referee's event loops.  Per-vertex encodes are independent by
// construction (a player sees only its own view, the coins, and earlier
// broadcasts — Section 2.1), so they fan out across the pool with fixed
// chunking: sketches land in their vertex slot and results are
// bit-identical at any thread count.
//
// With an arena attached, each (round, vertex) encode adopts pooled word
// storage into its BitWriter and moves the finished words into the
// BitString — zero per-vertex heap allocations in steady state
// (docs/ENGINE.md, counted by tests/engine/arena_alloc_test.cpp).
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "engine/arena.h"
#include "graph/graph.h"
#include "graph/weighted.h"
#include "model/protocol.h"
#include "parallel/thread_pool.h"
#include "util/bitio.h"

namespace ds::engine {

/// ViewFn: model::VertexView(graph::Vertex v)
template <typename ViewFn, typename Output>
class LocalSource {
 public:
  LocalSource(graph::Vertex n, ViewFn view_of,
              const model::Protocol<Output>& protocol,
              parallel::ThreadPool* pool, SketchArena* arena) noexcept
      : n_(n), view_of_(std::move(view_of)), protocol_(&protocol),
        pool_(pool), arena_(arena) {}

  [[nodiscard]] std::vector<util::BitString> collect(
      unsigned round, std::span<const util::BitString> broadcasts) {
    const std::size_t n = n_;
    const std::size_t base_slot = static_cast<std::size_t>(round) * n;
    if (arena_ != nullptr) arena_->prepare(base_slot + n);
    std::vector<util::BitString> sketches(n);
    parallel::parallel_for(pool_, std::size_t{0}, n, [&](std::size_t i) {
      util::BitWriter writer(arena_ != nullptr
                                 ? arena_->take(base_slot + i)
                                 : std::vector<std::uint64_t>{});
      protocol_->encode_round(view_of_(static_cast<graph::Vertex>(i)),
                              round, broadcasts, writer);
      sketches[i] = util::BitString(std::move(writer));
    });
    return sketches;
  }

  /// In-process players read broadcasts straight from the engine's
  /// accumulated list passed to collect(); nothing to deliver.
  void deliver_broadcast(unsigned, const util::BitString&) const noexcept {}

  [[nodiscard]] SketchArena* arena() const noexcept { return arena_; }

 private:
  graph::Vertex n_;
  ViewFn view_of_;
  const model::Protocol<Output>* protocol_;
  parallel::ThreadPool* pool_;
  SketchArena* arena_;
};

/// Deduction helper (a SketchingProtocol argument deduces Output through
/// its Protocol base).
template <typename ViewFn, typename Output>
[[nodiscard]] LocalSource<ViewFn, Output> make_local_source(
    graph::Vertex n, ViewFn view_of, const model::Protocol<Output>& protocol,
    parallel::ThreadPool* pool = nullptr, SketchArena* arena = nullptr) {
  return LocalSource<ViewFn, Output>(n, std::move(view_of), protocol, pool,
                                     arena);
}

/// The unweighted model view for vertex v of g.
[[nodiscard]] inline auto graph_view_fn(const graph::Graph& g,
                                        const model::PublicCoins& coins) {
  return [&g, &coins](graph::Vertex v) {
    return model::VertexView{g.num_vertices(), v, g.neighbors(v), &coins};
  };
}

/// The weighted model view: views additionally carry per-neighbor weights.
[[nodiscard]] inline auto graph_view_fn(const graph::WeightedGraph& g,
                                        const model::PublicCoins& coins) {
  return [&g, &coins](graph::Vertex v) {
    return model::VertexView{g.num_vertices(), v, g.topology().neighbors(v),
                             &coins, g.neighbor_weights(v)};
  };
}

}  // namespace ds::engine
