// Instrumented drop-in for model/runner.h: runs a protocol while
// enforcing the three model invariants (see audit.h).
//
// The audited runner is the engine's audit-certifying configuration: the
// collect/charge/broadcast/decode loop is the same round engine every
// other path runs (engine/round_engine.h), with
//   * an AuditSource — a LocalSource twin whose per-player encodes go
//     through audited_encode_player (guard-padded row copies, coin-replay
//     and locality probes per player), accumulating the AuditReport in
//     vertex order, and
//   * an AuditInstrumentation policy — structural accounting checks on
//     every referee broadcast, at the same point of the loop the seed
//     runner checked them.
// It therefore produces the same output and the same CommStats as the
// plain runner (an honest protocol cannot distinguish the guarded views),
// plus an AuditReport.  On a violation it fails through audit::fail with
// a diagnostic naming the invariant.
//
// Checks layered on top of the engine run, applied to every round of
// every protocol (a one-round protocol is the R = 1 case):
//   * order probe    — every player is re-encoded in reverse order after
//                      the forward pass, round by round, with the
//                      broadcasts it saw; a message that depends on WHICH
//                      other players encoded before it leaks state across
//                      players (locality);
//   * accounting     — the engine-charged CommStats are re-derived from
//                      the serialized round messages via a fresh
//                      ChargeSheet and must agree exactly;
//   * referee replay — every broadcast and the decode run again on the
//                      same messages with the same PublicCoins(seed);
//                      differing results mean the referee is
//                      nondeterministic (coin-determinism);
//   * scrub probe    — every player is re-encoded on a decoy view in
//                      every round, then the referee replays again: a
//                      changed broadcast or output means encoder state
//                      reached the referee outside the charged messages,
//                      i.e. the true message length was under-reported
//                      (bit-accounting).
//
// Outputs must be equality-comparable; every output type in the tree is.
#pragma once

#include <cstddef>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit.h"
#include "engine/charge.h"
#include "engine/instrumentation.h"
#include "engine/round_engine.h"
#include "graph/weighted.h"
#include "model/coins.h"
#include "model/protocol.h"
#include "parallel/thread_pool.h"

namespace ds::audit {

template <typename Output>
struct AuditedRunResult {
  Output output;
  model::CommStats comm;                   // per-player totals, all rounds
  std::vector<model::CommStats> by_round;  // per-round breakdown
  std::size_t broadcast_bits = 0;          // total referee downlink
  AuditReport report;
};

namespace detail {

/// Round `round` of `protocol`'s player algorithm as the audit core's
/// EncodeFn, seeing the broadcasts of the rounds before it.
template <typename Output>
[[nodiscard]] EncodeFn round_encode(
    const model::Protocol<Output>& protocol, unsigned round,
    std::span<const util::BitString> broadcasts) {
  return [&protocol, round, seen = broadcasts.first(round)](
             const model::VertexView& view, util::BitWriter& out) {
    protocol.encode_round(view, round, seen, out);
  };
}

/// How diagnostics name a protocol's round: the bare name when the
/// protocol has one round.
[[nodiscard]] inline std::string round_label(const std::string& name,
                                             unsigned round,
                                             unsigned rounds) {
  return rounds == 1 ? name
                     : name + " (round " + std::to_string(round) + ")";
}

/// The audit-certifying SketchSource: every per-player encode goes
/// through audited_encode_player on guard-padded views.  Encodes fan out
/// across the pool; per-chunk AuditReports merge in vertex order, so the
/// verdict and report are identical at any thread count.
template <typename RowFn, typename WeightFn, typename Output>
class AuditSource {
 public:
  AuditSource(graph::Vertex n, RowFn row_of, WeightFn weights_of,
              const model::Protocol<Output>& protocol, std::uint64_t seed,
              const AuditConfig& config, parallel::ThreadPool* pool)
      : n_(n), row_of_(std::move(row_of)),
        weights_of_(std::move(weights_of)), protocol_(&protocol),
        seed_(seed), config_(&config), pool_(pool) {}

  [[nodiscard]] std::vector<util::BitString> collect(
      unsigned round, std::span<const util::BitString> broadcasts) {
    const EncodeFn encode = round_encode(*protocol_, round, broadcasts);
    const std::string name =
        round_label(protocol_->name(), round, protocol_->num_rounds());
    std::vector<util::BitString> sketches(n_);
    report_.merge(parallel::parallel_reduce(
        pool_, std::size_t{0}, std::size_t{n_}, AuditReport{},
        [&](AuditReport& acc, std::size_t i) {
          const auto v = static_cast<graph::Vertex>(i);
          sketches[i] =
              audited_encode_player(encode, n_, v, row_of_(v),
                                    weights_of_(v), seed_, *config_, acc,
                                    name);
        },
        [](AuditReport& into, const AuditReport& from) {
          into.merge(from);
        }));
    return sketches;
  }

  void deliver_broadcast(unsigned, const util::BitString&) const noexcept {}

  [[nodiscard]] const AuditReport& report() const noexcept {
    return report_;
  }

 private:
  graph::Vertex n_;
  RowFn row_of_;
  WeightFn weights_of_;
  const model::Protocol<Output>* protocol_;
  std::uint64_t seed_;
  const AuditConfig* config_;
  parallel::ThreadPool* pool_;
  AuditReport report_;
};

/// Replay the referee on the recorded round messages: every broadcast
/// and the output must come out as they did in `run`.
template <typename Output>
[[nodiscard]] bool referee_replays(const model::Protocol<Output>& protocol,
                                   graph::Vertex n,
                                   const engine::EngineResult<Output>& run,
                                   const model::PublicCoins& coins) {
  const std::span<const std::vector<util::BitString>> rounds =
      run.all_rounds;
  for (unsigned r = 0; r < run.broadcasts.size(); ++r) {
    if (!same_message(protocol.make_broadcast(r, n, rounds.first(r + 1),
                                              coins),
                      run.broadcasts[r])) {
      return false;
    }
  }
  return protocol.decode_rounds(n, rounds, run.broadcasts, coins) ==
         run.output;
}

/// Engine Instrumentation policy that runs the structural accounting
/// checks on every referee broadcast, exactly where the loop produces it.
class AuditInstrumentation {
 public:
  AuditInstrumentation(const std::string& proto_name,
                       const AuditConfig& config,
                       AuditReport& report) noexcept
      : proto_name_(&proto_name), config_(&config), report_(&report) {}

  [[nodiscard]] engine::PlainInstrumentation::NoSpan collect_span()
      const noexcept {
    return {};
  }
  [[nodiscard]] engine::PlainInstrumentation::NoSpan decode_span()
      const noexcept {
    return {};
  }
  void on_sketch_bits(std::size_t) const noexcept {}
  void on_round(unsigned, unsigned,
                const model::CommStats&) const noexcept {}
  void on_broadcast(unsigned round, const util::BitString& b) const {
    if (!config_->check_accounting) return;
    check_message_accounting(
        b, "protocol '" + *proto_name_ + "', broadcast after round " +
               std::to_string(round),
        *report_);
  }

 private:
  const std::string* proto_name_;
  const AuditConfig* config_;
  AuditReport* report_;
};

}  // namespace detail

class AuditedRunner {
 public:
  explicit AuditedRunner(std::uint64_t coin_seed, AuditConfig config = {})
      : seed_(coin_seed), config_(config) {}

  [[nodiscard]] std::uint64_t coin_seed() const noexcept { return seed_; }
  [[nodiscard]] const AuditConfig& config() const noexcept { return config_; }

  /// Audited equivalent of model::run_protocol on an unweighted graph.
  /// The forward encode pass and the scrub probe fan out across the pool
  /// (null = global); the order probe stays sequential — it exists to
  /// detect cross-player encode-order dependence, which only a fixed
  /// replay order can witness.
  template <typename Output>
  [[nodiscard]] AuditedRunResult<Output> run(
      const graph::Graph& g, const model::Protocol<Output>& protocol,
      parallel::ThreadPool* pool = nullptr) const {
    return run_impl<Output>(
        g.num_vertices(),
        [&g](graph::Vertex v) { return g.neighbors(v); },
        [](graph::Vertex) { return std::span<const std::uint32_t>{}; },
        protocol, pool);
  }

  /// Audited equivalent of model::run_protocol on a weighted graph.
  template <typename Output>
  [[nodiscard]] AuditedRunResult<Output> run(
      const graph::WeightedGraph& g, const model::Protocol<Output>& protocol,
      parallel::ThreadPool* pool = nullptr) const {
    return run_impl<Output>(
        g.num_vertices(),
        [&g](graph::Vertex v) { return g.topology().neighbors(v); },
        [&g](graph::Vertex v) { return g.neighbor_weights(v); },
        protocol, pool);
  }

 private:
  template <typename Output, typename RowFn, typename WeightFn>
  [[nodiscard]] AuditedRunResult<Output> run_impl(
      graph::Vertex n, const RowFn& row_of, const WeightFn& weights_of,
      const model::Protocol<Output>& protocol,
      parallel::ThreadPool* pool) const {
    static_assert(std::equality_comparable<Output>);
    const std::string proto_name = protocol.name();
    const unsigned rounds = protocol.num_rounds();
    AuditReport report;

    detail::AuditSource<RowFn, WeightFn, Output> source(
        n, row_of, weights_of, protocol, seed_, config_, pool);
    const model::PublicCoins coins(seed_);
    detail::AuditInstrumentation instr(proto_name, config_, report);
    engine::EngineResult<Output> run =
        engine::run_rounds(n, protocol, coins, source, instr);
    report.merge(source.report());

    if (config_.check_locality) {
      // Order probe: replaying players back-to-front must reproduce the
      // forward-pass messages bit for bit, in every round.
      for (unsigned round = 0; round < rounds; ++round) {
        const EncodeFn encode =
            detail::round_encode(protocol, round, run.broadcasts);
        for (graph::Vertex v = n; v-- > 0;) {
          const util::BitString replay =
              encode_player_once(encode, n, v, row_of(v), weights_of(v),
                                 seed_, config_, report);
          if (!same_message(replay, run.all_rounds[round][v])) {
            std::ostringstream out;
            out << "protocol '"
                << detail::round_label(proto_name, round, rounds)
                << "', player " << v
                << ": message depends on the order in which OTHER players "
                   "were encoded — state leaks across players (paper "
                   "Section 2.1 locality)";
            fail(Invariant::kLocality, out.str());
          }
        }
      }
    }
    if (config_.check_accounting) {
      cross_check_accounting(run.comm, run.all_rounds, n, proto_name);
    }
    if (config_.check_determinism &&
        !detail::referee_replays(protocol, n, run, coins)) {
      fail(Invariant::kCoinDeterminism,
           "protocol '" + proto_name +
               "': referee produced different results from the same round "
               "messages and the same public coins");
    }
    if (config_.check_accounting) {
      // Scrub probe: poison any encoder-side state in every round, then
      // replay the referee.  Decoy encodes are independent per player, so
      // they fan out too.
      for (unsigned round = 0; round < rounds; ++round) {
        const EncodeFn encode =
            detail::round_encode(protocol, round, run.broadcasts);
        report.merge(parallel::parallel_reduce(
            pool, std::size_t{0}, std::size_t{n}, AuditReport{},
            [&](AuditReport& acc, std::size_t i) {
              scrub_encode_player(encode, n, static_cast<graph::Vertex>(i),
                                  seed_, acc);
            },
            [](AuditReport& into, const AuditReport& from) {
              into.merge(from);
            }));
      }
      if (!detail::referee_replays(protocol, n, run, coins)) {
        fail(Invariant::kBitAccounting,
             "protocol '" + proto_name +
                 "': referee output changed after the encoders were re-run "
                 "on decoy views — information reached the referee outside "
                 "the serialized messages, so the charged message length "
                 "under-reports the true communication");
      }
    }
    return {std::move(run.output), run.comm, std::move(run.by_round),
            run.broadcast_bits, report};
  }

  /// Re-derive the run-level CommStats from the serialized round messages
  /// through a fresh ChargeSheet and compare against what the engine
  /// charged during the run: any drift between the bits charged at encode
  /// time and the bits actually serialized is a kBitAccounting violation.
  static void cross_check_accounting(
      const model::CommStats& reported,
      const std::vector<std::vector<util::BitString>>& all_rounds,
      graph::Vertex n, const std::string& name) {
    engine::ChargeSheet sheet(n);
    engine::PlainInstrumentation plain;
    for (const std::vector<util::BitString>& round : all_rounds) {
      (void)sheet.charge_round(round, plain);
    }
    const model::CommStats recomputed = sheet.player_totals();
    if (recomputed.max_bits != reported.max_bits ||
        recomputed.total_bits != reported.total_bits ||
        recomputed.num_players != reported.num_players) {
      std::ostringstream out;
      out << "protocol '" << name
          << "': CommStats disagree with the serialized round messages "
             "(reported max/total "
          << reported.max_bits << "/" << reported.total_bits
          << ", serialized " << recomputed.max_bits << "/"
          << recomputed.total_bits << ")";
      fail(Invariant::kBitAccounting, out.str());
    }
  }

  std::uint64_t seed_;
  AuditConfig config_;
};

}  // namespace ds::audit
