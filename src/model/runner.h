// Executes a protocol on a graph, in process.
//
// This is a thin adapter: the actual collect/charge/broadcast/decode loop
// is the round engine (engine/round_engine.h), run here with an
// in-process LocalSource and the obs-metrics instrumentation policy.  One
// entry point serves every protocol — a one-round SketchingProtocol is
// the R = 1 case — on a Graph or a WeightedGraph (whose views also carry
// per-neighbor weights).  The engine's ChargeSheet is the single place
// sketch bits enter CommStats, and results — outputs AND bit accounting —
// are identical to the serial loop at any thread count (docs/ENGINE.md,
// docs/PARALLELISM.md).
//
// Pass a ThreadPool to choose one explicitly; null uses the global pool
// (sized by DISTSKETCH_THREADS).  Within a round every player sees only
// (view, earlier broadcasts), so the encodes fan out across the pool; the
// broadcast barrier between rounds stays sequential by design.  Pass a
// SketchArena to pool the encode buffers across repeated runs on
// same-shaped instances (sweeps, benches): steady-state encodes then
// perform zero per-vertex heap allocations.  An arena must not be shared
// between concurrently running trials.
#pragma once

#include <utility>
#include <vector>

#include "engine/local_source.h"
#include "engine/round_engine.h"
#include "model/protocol.h"
#include "parallel/thread_pool.h"

namespace ds::model {

template <typename Output>
struct RunResult {
  Output output;
  CommStats comm;                   // per-player totals, all rounds
  std::vector<CommStats> by_round;  // per-round breakdown
  std::size_t broadcast_bits = 0;   // total referee downlink
};

/// Materialize every player's sketch for `g` (a Graph or a WeightedGraph)
/// under the one-round `protocol`, charging them into `comm`.
template <typename G, typename Output>
[[nodiscard]] std::vector<util::BitString> collect_sketches(
    const G& g, const SketchingProtocol<Output>& protocol,
    const PublicCoins& coins, CommStats& comm,
    parallel::ThreadPool* pool = nullptr) {
  const graph::Vertex n = g.num_vertices();
  auto source = engine::make_local_source(
      n, engine::graph_view_fn(g, coins), protocol, pool);
  engine::ObsInstrumentation instr;
  std::vector<util::BitString> sketches;
  {
    const auto span = instr.collect_span();
    sketches = source.collect(0, {});
  }
  engine::ChargeSheet sheet(n);
  comm.merge(sheet.charge_round(sketches, instr));
  return sketches;
}

/// Run every round of `protocol` on `g` (a Graph or a WeightedGraph).
template <typename G, typename Output>
[[nodiscard]] RunResult<Output> run_protocol(
    const G& g, const Protocol<Output>& protocol, const PublicCoins& coins,
    parallel::ThreadPool* pool = nullptr,
    engine::SketchArena* arena = nullptr) {
  const graph::Vertex n = g.num_vertices();
  auto source = engine::make_local_source(
      n, engine::graph_view_fn(g, coins), protocol, pool, arena);
  engine::ObsInstrumentation instr;
  engine::EngineResult<Output> run =
      engine::run_rounds(n, protocol, coins, source, instr);
  if (arena != nullptr) arena->reclaim_rounds(std::move(run.all_rounds));
  return {std::move(run.output), run.comm, std::move(run.by_round),
          run.broadcast_bits};
}

}  // namespace ds::model
