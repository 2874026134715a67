#include "core/sweep.h"

#include "engine/arena.h"
#include "util/rng.h"

namespace ds::core {

SweepResult sweep_budgets(const scenario::Scenario& scenario,
                          std::span<const std::size_t> budgets,
                          std::size_t trials, std::uint64_t seed,
                          double target_rate, parallel::ThreadPool* pool) {
  SweepResult result;
  if (budgets.empty()) return result;
  // Trial-major: trial t draws its instance once and runs every budget on
  // it, in budget order, into outcomes[b * trials + t].
  std::vector<scenario::TrialOutcome> outcomes(budgets.size() * trials);
  engine::ArenaReservoir arenas;
  parallel::parallel_for(pool, 0, trials, [&](std::size_t trial) {
    const std::uint64_t trial_seed = util::derive_seed(seed, trial);
    const engine::ArenaLease arena(arenas);
    const scenario::Instance inst = scenario.sample(trial_seed);
    for (std::size_t b = 0; b < budgets.size(); ++b) {
      outcomes[b * trials + trial] = scenario.run_instance(
          inst, budgets[b], trial_seed, pool, arena.get());
    }
  });
  for (std::size_t b = 0; b < budgets.size(); ++b) {
    SweepPoint point;
    point.budget_bits = budgets[b];
    for (const scenario::TrialOutcome& outcome :
         std::span(outcomes).subspan(b * trials, trials)) {
      ++point.trials;
      if (outcome.success) ++point.successes;
      if (outcome.max_bits > point.max_bits_seen) {
        point.max_bits_seen = outcome.max_bits;
      }
    }
    point.rate = point.trials == 0
                     ? 0.0
                     : static_cast<double>(point.successes) /
                           static_cast<double>(point.trials);
    point.ci = util::wilson_interval(point.successes, point.trials);
    if (!result.threshold_budget.has_value() && point.rate >= target_rate) {
      result.threshold_budget = point.budget_bits;
    }
    result.points.push_back(point);
  }
  return result;
}

SweepResult sweep_scenario(const scenario::Scenario& scenario,
                           parallel::ThreadPool* pool) {
  const scenario::Grid& grid = scenario.default_grid();
  return sweep_budgets(scenario, grid.budgets, grid.trials, grid.seed,
                       grid.target_rate, pool);
}

std::vector<std::size_t> geometric_budgets(std::size_t lo, std::size_t hi,
                                           double factor) {
  return scenario::geometric_ladder(lo, hi, factor);
}

}  // namespace ds::core
