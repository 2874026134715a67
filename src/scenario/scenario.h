// First-class instance families: a Scenario bundles a seeded instance
// sampler (graph + any hidden witness, e.g. D_MM's planted j*/sigma), a
// budget-parameterized protocol factory, a success predicate, and a
// default parameter grid, behind one string id.
//
// This is the input-side twin of PR 5's execution seam: the sweep
// harness (core/sweep.h), the wire service (tools/distsketch_service
// --scenario), and the benches all consume `const Scenario&`, so a new
// input distribution registers once (src/scenario/builtin.cpp — the
// lint-enforced single registration site) and every harness picks it up
// with zero per-scenario plumbing.
//
// Determinism contract (docs/SCENARIOS.md):
//   * sample(trial_seed) is a pure function of the seed — the sweep
//     derives trial_seed = derive_seed(sweep_seed, trial) counter-style,
//     so trial i's instance never depends on thread schedule, and draws
//     it once for all of the sweep's budgets;
//   * public coins are always PublicCoins(derive_seed(trial_seed,
//     kCoinTag)) — the same keying on the referee, the player, and the
//     simulated runner, which is what makes sim == wire bit-exact;
//   * num_vertices() is seed-independent: wire players shard [0, n)
//     before ever seeing an instance.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "model/coins.h"
#include "util/rng.h"

namespace ds::engine {
class SketchArena;
}
namespace ds::parallel {
class ThreadPool;
}
namespace ds::service {
class RefereeService;
}
namespace ds::wire {
class Link;
}

namespace ds::scenario {

/// A sampled instance: the graph the players see plus whatever hidden
/// structure the judge needs (type-erased; scenarios that plant a
/// witness — D_MM's j*/sigma, the true component count — stash it here).
struct Instance {
  graph::Graph g;
  std::shared_ptr<const void> witness;
};

/// Typed view of the witness.  The caller asserts the scenario that
/// produced `inst` stores a W (each scenario documents its witness type).
template <typename W>
[[nodiscard]] const W& witness_as(const Instance& inst) {
  return *static_cast<const W*>(inst.witness.get());
}

/// One protocol execution, scenario-scored.  `output_hash` fingerprints
/// the encoded output (OutputCodec bits), so sim and wire runs can be
/// compared without knowing the output type.
struct TrialOutcome {
  bool success = false;
  std::size_t max_bits = 0;  // realized worst player message
  std::uint64_t output_hash = 0;
};

/// A scenario's default sweep configuration: the budgets/trials/seed a
/// caller gets when it asks for "the" threshold curve of this family.
struct Grid {
  std::vector<std::size_t> budgets;
  std::size_t trials = 16;
  std::uint64_t seed = 7;
  double target_rate = 0.9;
};

/// A geometric budget ladder: lo, lo*factor, ... capped at hi
/// (inclusive).
[[nodiscard]] std::vector<std::size_t> geometric_ladder(std::size_t lo,
                                                        std::size_t hi,
                                                        double factor = 2.0);

/// The one coin-derivation tag: every harness (sweep, wire referee, wire
/// player) keys a trial's public coins as derive_seed(trial_seed,
/// kCoinTag), so identical seeds mean identical coins on every path.
inline constexpr std::uint64_t kCoinTag = 0xC01;

[[nodiscard]] inline model::PublicCoins trial_coins(
    std::uint64_t trial_seed) {
  return model::PublicCoins(util::derive_seed(trial_seed, kCoinTag));
}

/// FNV-1a folding over 64-bit values — the output-hash and golden-sweep
/// fingerprint primitive (stable across platforms; tests pin values).
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;
[[nodiscard]] constexpr std::uint64_t fnv_fold(std::uint64_t h,
                                               std::uint64_t v) noexcept {
  h ^= v;
  return h * kFnvPrime;
}

/// An instance family the harnesses can run by id.  Implementations
/// subclass TypedScenario<Output> (scenario/typed.h), which derives the
/// three execution paths below from sample/make_protocol/judge.
class Scenario {
 public:
  virtual ~Scenario() = default;

  [[nodiscard]] virtual std::string_view id() const noexcept = 0;
  [[nodiscard]] virtual std::string_view description() const noexcept = 0;
  [[nodiscard]] virtual const Grid& default_grid() const noexcept = 0;

  /// Seed-independent vertex count of every sampled instance.
  [[nodiscard]] virtual graph::Vertex num_vertices() const noexcept = 0;

  /// Draw the instance for `trial_seed` (pure function of the seed).
  [[nodiscard]] virtual Instance sample(std::uint64_t trial_seed) const = 0;

  /// Simulated path on `inst`, which must be sample(trial_seed): build
  /// the protocol for this budget, run it in-process on
  /// trial_coins(trial_seed) (null pool = the global one; an optional
  /// arena pools encode buffers across runs), judge the output.  The
  /// sweep draws each trial's instance once and runs every budget on it.
  [[nodiscard]] virtual TrialOutcome run_instance(
      const Instance& inst, std::size_t budget_bits, std::uint64_t trial_seed,
      parallel::ThreadPool* pool, engine::SketchArena* arena) const = 0;

  /// Simulated path: sample, then run_instance.
  [[nodiscard]] TrialOutcome run_trial(
      std::size_t budget_bits, std::uint64_t trial_seed,
      parallel::ThreadPool* pool = nullptr,
      engine::SketchArena* arena = nullptr) const {
    return run_instance(sample(trial_seed), budget_bits, trial_seed, pool,
                        arena);
  }

  /// Wire referee path: collect this trial's sketches from the service's
  /// links, decode, judge.  Bit accounting and output match run_trial on
  /// the same (budget, trial_seed) — the scenario-smoke contract.
  [[nodiscard]] virtual TrialOutcome serve_trial(
      service::RefereeService& referee, std::size_t budget_bits,
      std::uint64_t trial_seed) const = 0;

  /// Wire player path: sample the same instance locally, send sketches
  /// for `owned` vertices, await the result; returns its output hash.
  [[nodiscard]] virtual std::uint64_t play_trial(
      wire::Link& link, std::span<const graph::Vertex> owned,
      std::size_t budget_bits, std::uint64_t trial_seed,
      std::chrono::milliseconds timeout) const = 0;
};

/// Metric hooks whose obs registrations live in src/scenario/scenario.cpp
/// (the single "scenario." owner per obs_owners.toml).
void note_trial_run();   // scenario.trials
void note_wire_trial();  // scenario.wire_trials

}  // namespace ds::scenario
