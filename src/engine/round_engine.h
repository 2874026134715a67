// The single round engine: one loop for every model::Protocol, whose
// one-round protocols are the R = 1 case.
//
// Every execution path in the tree — model::run_protocol,
// audit::AuditedRunner::run, service::serve_protocol — is a thin adapter
// over the loop below:
//
//   for round r in [0, R):
//     sketches   <- source.collect(r, broadcasts)       (the SketchSource seam)
//     by_round_r <- sheet.charge_round(sketches)        (the ONE CommStats site)
//     if r + 1 < R:
//       b <- protocol.make_broadcast(r, all rounds so far)
//       source.deliver_broadcast(r, b)                  (wire: push a frame;
//                                                        local: no-op)
//   comm   <- sheet.player_totals()                     (per-player sums)
//   output <- protocol.decode_rounds(all rounds, broadcasts)
//
// The two seams (docs/ENGINE.md):
//   * SketchSource     — where sketches come from: in-process encode via
//     the thread pool (engine/local_source.h) or frames from the
//     referee's shard event loops (service/shard.h).
//   * Instrumentation  — what is observed: nothing (Plain), obs metrics
//     (Obs), audit certification (audit/audited_runner.h), service spans
//     (service/referee_service.h).  See engine/instrumentation.h.
//
// The result keeps the raw per-round sketches and broadcasts so adapters
// can run post-passes (the audit's order/scrub/replay probes, arena
// reclamation) without re-collecting.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "engine/charge.h"
#include "engine/instrumentation.h"
#include "graph/graph.h"
#include "model/protocol.h"
#include "util/bitio.h"

namespace ds::engine {

template <typename Output>
struct EngineResult {
  Output output{};
  model::CommStats comm;                   // per-player totals, all rounds
  std::vector<model::CommStats> by_round;  // per-round breakdown
  std::size_t broadcast_bits = 0;          // total referee downlink
  // The raw transcript, for adapter post-passes.
  std::vector<std::vector<util::BitString>> all_rounds;
  std::vector<util::BitString> broadcasts;
};

/// Run `protocol`'s num_rounds() rounds over `source`, charging every
/// sketch through one ChargeSheet and observing through `instr`.
template <typename Output, typename Source, typename Instrumentation>
[[nodiscard]] EngineResult<Output> run_rounds(
    graph::Vertex n, const model::Protocol<Output>& protocol,
    const model::PublicCoins& coins, Source& source,
    Instrumentation& instr) {
  const unsigned rounds = protocol.num_rounds();

  EngineResult<Output> result;
  ChargeSheet sheet(n);
  for (unsigned round = 0; round < rounds; ++round) {
    std::vector<util::BitString> sketches;
    {
      [[maybe_unused]] const auto span = instr.collect_span();
      sketches = source.collect(round, result.broadcasts);
    }
    result.by_round.push_back(sheet.charge_round(sketches, instr));
    instr.on_round(round, rounds, result.by_round.back());
    result.all_rounds.push_back(std::move(sketches));

    if (round + 1 < rounds) {
      util::BitString b =
          protocol.make_broadcast(round, n, result.all_rounds, coins);
      instr.on_broadcast(round, b);
      result.broadcast_bits += b.bit_count();
      source.deliver_broadcast(round, b);
      result.broadcasts.push_back(std::move(b));
    }
  }

  result.comm = sheet.player_totals();
  {
    [[maybe_unused]] const auto span = instr.decode_span();
    result.output = protocol.decode_rounds(n, result.all_rounds,
                                           result.broadcasts, coins);
  }
  return result;
}

}  // namespace ds::engine
