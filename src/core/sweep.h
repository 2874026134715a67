// The budget-sweep harness: for a protocol family parameterized by a
// per-player bit budget, estimate success probability per budget over an
// input distribution, and locate the threshold budget for a target rate.
//
// The input distribution, protocol factory, and success predicate come
// bundled as a scenario::Scenario — sweep any registered family by id
// (scenario::find) or an ad-hoc InlineScenario; there is no per-family
// harness code.  This is the engine behind experiments E3 (maximal
// matching on D_MM) and the MIS sweeps: the paper predicts the threshold
// tracks ~r (up to log factors), i.e. ~sqrt(n)/e^{Theta(sqrt(log n))}.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "parallel/thread_pool.h"
#include "scenario/scenario.h"
#include "util/stats.h"

namespace ds::core {

struct SweepPoint {
  std::size_t budget_bits = 0;     // requested budget
  std::size_t trials = 0;
  std::size_t successes = 0;
  std::size_t max_bits_seen = 0;   // realized worst player message
  double rate = 0.0;
  util::Interval ci{0.0, 1.0};     // Wilson 95%
};

struct SweepResult {
  std::vector<SweepPoint> points;
  /// Smallest swept budget whose rate reached the target, if any.
  std::optional<std::size_t> threshold_budget;
};

/// For each budget: `trials` independent scenario trials, success judged
/// by the scenario itself.
///
/// Each trial's seed is derived counter-style from (seed, trial) —
/// util::derive_seed — and is the same at every budget, so the sweep
/// draws trial t's instance once (Scenario::sample) and runs every budget
/// on it in budget order (Scenario::run_instance, which builds a fresh
/// protocol per budget).  The trials are one parallel_for job on the
/// thread pool (null `pool` = the global one); trial t's input and coins
/// never depend on which thread ran it or on the other trials, and the
/// outcomes are folded budget by budget in trial order: the SweepResult
/// is bit-identical at any thread count, including 1, and to a
/// budget-major sweep of run_trial (pinned by the golden-sweep and
/// determinism tests).  An empty budget list draws nothing.  Encode
/// buffers are pooled through an ArenaReservoir — one arena per running
/// trial, held across its budgets — so steady-state trials allocate no
/// per-vertex buffers (counted by tests/engine/arena_alloc_test.cpp).
[[nodiscard]] SweepResult sweep_budgets(const scenario::Scenario& scenario,
                                        std::span<const std::size_t> budgets,
                                        std::size_t trials,
                                        std::uint64_t seed,
                                        double target_rate = 0.99,
                                        parallel::ThreadPool* pool = nullptr);

/// Sweep a scenario over its own default grid.
[[nodiscard]] SweepResult sweep_scenario(const scenario::Scenario& scenario,
                                         parallel::ThreadPool* pool = nullptr);

/// A geometric budget ladder: lo, lo*factor, ... capped at hi (inclusive).
[[nodiscard]] std::vector<std::size_t> geometric_budgets(std::size_t lo,
                                                         std::size_t hi,
                                                         double factor = 2.0);

}  // namespace ds::core
