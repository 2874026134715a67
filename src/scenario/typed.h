// TypedScenario<Output>: derives the three Scenario execution paths
// (simulated run, wire referee, wire player) from the three things a
// family actually defines — sample, make_protocol, judge.  All paths key
// public coins as trial_coins(trial_seed) and hash outputs through the
// wire OutputCodec, so a scenario written once is sim==wire comparable
// for free (the scenario-smoke test asserts exactly that, per scenario).
#pragma once

#include <functional>
#include <string>
#include <utility>

#include "model/protocol.h"
#include "model/runner.h"
#include "scenario/scenario.h"
#include "service/output_codec.h"
#include "service/player_client.h"
#include "service/referee_service.h"

namespace ds::scenario {

/// Fingerprint of an output's wire encoding: FNV over the bit count then
/// the encoded words.  Identical outputs hash identically on every path.
template <typename Output>
[[nodiscard]] std::uint64_t hash_output(const Output& output) {
  util::BitWriter w;
  service::OutputCodec<Output>::encode(output, w);
  std::uint64_t h = fnv_fold(kFnvOffset, w.bit_count());
  for (const std::uint64_t word : w.words()) h = fnv_fold(h, word);
  return h;
}

template <typename Output>
class TypedScenario : public Scenario {
 public:
  /// Fresh protocol for this budget.  Must be a pure function of
  /// `budget_bits` (no RNG in construction): the sweep constructs one per
  /// (trial, budget), and sim/wire construct their own equal copies.
  [[nodiscard]] virtual std::unique_ptr<model::SketchingProtocol<Output>>
  make_protocol(std::size_t budget_bits) const = 0;

  /// Success predicate; `inst` carries the witness the family planted.
  [[nodiscard]] virtual bool judge(const Instance& inst,
                                   const Output& output) const = 0;

  [[nodiscard]] TrialOutcome run_instance(
      const Instance& inst, std::size_t budget_bits, std::uint64_t trial_seed,
      parallel::ThreadPool* pool,
      engine::SketchArena* arena) const override {
    note_trial_run();
    const auto protocol = make_protocol(budget_bits);
    model::RunResult<Output> run = model::run_protocol(
        inst.g, *protocol, trial_coins(trial_seed), pool, arena);
    return {judge(inst, run.output), run.comm.max_bits,
            hash_output(run.output)};
  }

  [[nodiscard]] TrialOutcome serve_trial(
      service::RefereeService& referee, std::size_t budget_bits,
      std::uint64_t trial_seed) const override {
    note_wire_trial();
    const Instance inst = sample(trial_seed);
    const auto protocol = make_protocol(budget_bits);
    service::ServeResult<Output> run = service::serve_protocol(
        referee.links(), *protocol, inst.g.num_vertices(),
        trial_coins(trial_seed), referee.timeout());
    return {judge(inst, run.output), run.comm.max_bits,
            hash_output(run.output)};
  }

  [[nodiscard]] std::uint64_t play_trial(
      wire::Link& link, std::span<const graph::Vertex> owned,
      std::size_t budget_bits, std::uint64_t trial_seed,
      std::chrono::milliseconds timeout) const override {
    const Instance inst = sample(trial_seed);
    const auto protocol = make_protocol(budget_bits);
    const Output output = service::play_protocol(
        link, inst.g, owned, *protocol, trial_coins(trial_seed), timeout);
    return hash_output(output);
  }
};

/// Function-assembled scenario for tests and one-off sweeps: the three
/// hooks as std::functions, no registration required.
template <typename Output>
class InlineScenario final : public TypedScenario<Output> {
 public:
  using SampleFn = std::function<Instance(std::uint64_t)>;
  using ProtocolFn =
      std::function<std::unique_ptr<model::SketchingProtocol<Output>>(
          std::size_t)>;
  using JudgeFn = std::function<bool(const Instance&, const Output&)>;

  InlineScenario(std::string id, std::string description, graph::Vertex n,
                 Grid grid, SampleFn sample, ProtocolFn protocol,
                 JudgeFn judge)
      : id_(std::move(id)),
        description_(std::move(description)),
        n_(n),
        grid_(std::move(grid)),
        sample_(std::move(sample)),
        protocol_(std::move(protocol)),
        judge_(std::move(judge)) {}

  [[nodiscard]] std::string_view id() const noexcept override { return id_; }
  [[nodiscard]] std::string_view description() const noexcept override {
    return description_;
  }
  [[nodiscard]] const Grid& default_grid() const noexcept override {
    return grid_;
  }
  [[nodiscard]] graph::Vertex num_vertices() const noexcept override {
    return n_;
  }
  [[nodiscard]] Instance sample(std::uint64_t trial_seed) const override {
    return sample_(trial_seed);
  }
  [[nodiscard]] std::unique_ptr<model::SketchingProtocol<Output>>
  make_protocol(std::size_t budget_bits) const override {
    return protocol_(budget_bits);
  }
  [[nodiscard]] bool judge(const Instance& inst,
                           const Output& output) const override {
    return judge_(inst, output);
  }

 private:
  std::string id_;
  std::string description_;
  graph::Vertex n_;
  Grid grid_;
  SampleFn sample_;
  ProtocolFn protocol_;
  JudgeFn judge_;
};

}  // namespace ds::scenario
