// The single round engine: one-round protocols are the R = 1 case of the
// adaptive pattern.
//
// Every execution path in the tree — model::run_protocol,
// model::run_adaptive, audit::AuditedRunner, service::RefereeService —
// is a thin adapter over the loop below:
//
//   for round r in [0, R):
//     sketches   <- source.collect(r, broadcasts)       (the SketchSource seam)
//     by_round_r <- sheet.charge_round(sketches)        (the ONE CommStats site)
//     if r + 1 < R:
//       b <- referee.make_broadcast(r, all rounds so far)
//       source.deliver_broadcast(r, b)                  (wire: push a frame;
//                                                        local: no-op)
//   comm   <- sheet.player_totals()                     (per-player sums)
//   output <- referee.decode(all rounds, broadcasts)
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

namespace ds::model {
template <typename Output>
class AdaptiveProtocol;  // model/adaptive.h; methods used only in templates
}  // namespace ds::model

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

/// A Referee drives the decode side of the loop:
///   unsigned num_rounds() const;
///   util::BitString make_broadcast(unsigned round, graph::Vertex n,
///       std::span<const std::vector<util::BitString>> rounds_so_far) const;
///   Output decode(graph::Vertex n,
///       std::span<const std::vector<util::BitString>> all_rounds,
///       std::span<const util::BitString> broadcasts) const;
template <typename Referee, typename Source, typename Instrumentation>
[[nodiscard]] auto run_rounds(graph::Vertex n, const Referee& referee,
                              Source& source, Instrumentation& instr) {
  using Output = decltype(referee.decode(
      n, std::span<const std::vector<util::BitString>>{},
      std::span<const util::BitString>{}));
  const unsigned rounds = referee.num_rounds();

  EngineResult<Output> result;
  ChargeSheet sheet(n);
  for (unsigned round = 0; round < rounds; ++round) {
    std::vector<util::BitString> sketches;
    {
      [[maybe_unused]] const auto span = instr.collect_span();
      sketches = source.collect(round, result.broadcasts);
    }
    result.by_round.push_back(sheet.charge_round(sketches, instr));
    instr.on_round(round, result.by_round.back());
    result.all_rounds.push_back(std::move(sketches));

    if (round + 1 < rounds) {
      util::BitString b =
          referee.make_broadcast(round, n, result.all_rounds);
      instr.on_broadcast(round, b);
      result.broadcast_bits += b.bit_count();
      source.deliver_broadcast(round, b);
      result.broadcasts.push_back(std::move(b));
    }
  }

  result.comm = sheet.player_totals();
  {
    [[maybe_unused]] const auto span = instr.decode_span();
    result.output = referee.decode(n, result.all_rounds, result.broadcasts);
  }
  return result;
}

/// R = 1 referee over a SketchingProtocol: no broadcasts, decode sees the
/// single round.
template <typename Output>
class OneRoundReferee {
 public:
  OneRoundReferee(const model::SketchingProtocol<Output>& protocol,
                  const model::PublicCoins& coins) noexcept
      : protocol_(&protocol), coins_(&coins) {}

  [[nodiscard]] unsigned num_rounds() const noexcept { return 1; }

  [[nodiscard]] util::BitString make_broadcast(
      unsigned, graph::Vertex,
      std::span<const std::vector<util::BitString>>) const {
    return {};  // never called for R = 1
  }

  [[nodiscard]] Output decode(
      graph::Vertex n,
      std::span<const std::vector<util::BitString>> all_rounds,
      std::span<const util::BitString>) const {
    return protocol_->decode(n, all_rounds[0], *coins_);
  }

 private:
  const model::SketchingProtocol<Output>* protocol_;
  const model::PublicCoins* coins_;
};

/// Adapter over the virtual AdaptiveProtocol interface.
template <typename Output>
class AdaptiveReferee {
 public:
  AdaptiveReferee(const model::AdaptiveProtocol<Output>& protocol,
                  const model::PublicCoins& coins) noexcept
      : protocol_(&protocol), coins_(&coins) {}

  [[nodiscard]] unsigned num_rounds() const {
    return protocol_->num_rounds();
  }

  [[nodiscard]] util::BitString make_broadcast(
      unsigned round, graph::Vertex n,
      std::span<const std::vector<util::BitString>> rounds_so_far) const {
    return protocol_->make_broadcast(round, n, rounds_so_far, *coins_);
  }

  [[nodiscard]] Output decode(
      graph::Vertex n,
      std::span<const std::vector<util::BitString>> all_rounds,
      std::span<const util::BitString> broadcasts) const {
    return protocol_->decode(n, all_rounds, broadcasts, *coins_);
  }

 private:
  const model::AdaptiveProtocol<Output>* protocol_;
  const model::PublicCoins* coins_;
};

}  // namespace ds::engine
