// sweep_budgets edge cases the golden test can't reach — a target rate
// that is never met (threshold stays nullopt), a non-monotone rate curve
// (threshold is the FIRST crossing, by contract), the single-trial
// Wilson interval, and the draw count (one sample per trial, whatever
// the number of budgets).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/sweep.h"
#include "graph/generators.h"
#include "graph/matching.h"
#include "parallel/thread_pool.h"
#include "protocols/sampled_matching.h"
#include "scenario/typed.h"
#include "util/stats.h"

namespace ds::scenario {
namespace {

Instance gnp_instance(graph::Vertex n, double p, std::uint64_t seed) {
  util::Rng rng(seed);
  return Instance{graph::gnp(n, p, rng), nullptr};
}

bool is_maximal(const Instance& inst, const model::MatchingOutput& out) {
  return graph::is_matching(out, inst.g.num_vertices()) &&
         graph::is_valid_matching(inst.g, out) &&
         graph::is_maximal_matching(inst.g, out);
}

// A scenario whose effective protocol budget is an arbitrary function of
// the swept budget — the lever for shaping the rate curve.
InlineScenario<model::MatchingOutput> shaped_scenario(
    std::function<std::size_t(std::size_t)> effective_budget) {
  return InlineScenario<model::MatchingOutput>(
      "shaped", "budget-shaped matching for sweep edge cases", 20,
      Grid{{64}, 4, 11, 0.9},
      [](std::uint64_t seed) { return gnp_instance(20, 0.3, seed); },
      [effective_budget = std::move(effective_budget)](std::size_t budget) {
        return std::make_unique<protocols::BudgetedMatching>(
            effective_budget(budget));
      },
      is_maximal);
}

TEST(SweepEdge, TargetNeverReachedLeavesThresholdEmpty) {
  // Every budget maps to a 1-bit protocol: maximality is unreachable, the
  // rate stays ~0, and no threshold may be reported.
  const auto s = shaped_scenario([](std::size_t) { return std::size_t{1}; });
  const std::vector<std::size_t> budgets{8, 64, 512};
  const core::SweepResult result =
      core::sweep_budgets(s, budgets, /*trials=*/6, /*seed=*/3,
                          /*target_rate=*/0.9);
  ASSERT_EQ(result.points.size(), 3u);
  EXPECT_FALSE(result.threshold_budget.has_value());
  for (const core::SweepPoint& p : result.points) {
    EXPECT_LT(p.rate, 0.9);
    EXPECT_LE(p.ci.hi, 1.0);
    EXPECT_GE(p.ci.lo, 0.0);
  }
}

TEST(SweepEdge, NonMonotoneCurveThresholdIsFirstCrossing) {
  // The middle budget is sabotaged down to 1 effective bit, so the rate
  // curve goes high -> low -> high.  The contract (sweep.h) is that
  // threshold_budget is the SMALLEST swept budget whose rate reached the
  // target — the later dip must not un-set it.
  const auto s = shaped_scenario([](std::size_t budget) {
    return budget == 64 ? std::size_t{1} : std::size_t{4096};
  });
  const std::vector<std::size_t> budgets{16, 64, 256};
  const core::SweepResult result =
      core::sweep_budgets(s, budgets, /*trials=*/6, /*seed=*/3,
                          /*target_rate=*/0.9);
  ASSERT_EQ(result.points.size(), 3u);
  EXPECT_EQ(result.points[0].rate, 1.0);
  EXPECT_LT(result.points[1].rate, 0.9);
  EXPECT_EQ(result.points[2].rate, 1.0);
  ASSERT_TRUE(result.threshold_budget.has_value());
  EXPECT_EQ(*result.threshold_budget, 16u);
}

TEST(SweepEdge, SingleTrialWilsonIntervalMatchesStatsHelper) {
  // trials = 1 is the extreme small-sample case: the point rate is 0 or 1
  // and the Wilson interval must match util::wilson_interval exactly and
  // stay inside [0, 1] (never the degenerate +/- normal approximation).
  const auto always = shaped_scenario([](std::size_t) {
    return std::size_t{4096};
  });
  const auto never = shaped_scenario([](std::size_t) {
    return std::size_t{1};
  });
  const std::vector<std::size_t> budgets{32};

  const core::SweepResult hit =
      core::sweep_budgets(always, budgets, /*trials=*/1, /*seed=*/5);
  ASSERT_EQ(hit.points.size(), 1u);
  EXPECT_EQ(hit.points[0].trials, 1u);
  EXPECT_EQ(hit.points[0].successes, 1u);
  EXPECT_EQ(hit.points[0].rate, 1.0);
  const util::Interval one = util::wilson_interval(1, 1);
  EXPECT_EQ(hit.points[0].ci.lo, one.lo);
  EXPECT_EQ(hit.points[0].ci.hi, one.hi);
  EXPECT_GT(hit.points[0].ci.lo, 0.0);
  EXPECT_LE(hit.points[0].ci.hi, 1.0);

  const core::SweepResult miss =
      core::sweep_budgets(never, budgets, /*trials=*/1, /*seed=*/5);
  ASSERT_EQ(miss.points.size(), 1u);
  EXPECT_EQ(miss.points[0].successes, 0u);
  EXPECT_EQ(miss.points[0].rate, 0.0);
  const util::Interval zero = util::wilson_interval(0, 1);
  EXPECT_EQ(miss.points[0].ci.lo, zero.lo);
  EXPECT_EQ(miss.points[0].ci.hi, zero.hi);
  EXPECT_GE(miss.points[0].ci.lo, 0.0);
  EXPECT_LT(miss.points[0].ci.hi, 1.0);
}

TEST(SweepEdge, DrawsEachTrialInstanceOnceForAllBudgets) {
  // A trial's seed is the same at every budget, so the sweep samples its
  // instance once and builds one protocol per (trial, budget); an empty
  // budget list draws nothing.
  std::atomic<std::size_t> samples{0};
  std::atomic<std::size_t> protocols{0};
  const InlineScenario<model::MatchingOutput> s(
      "counting", "matching that counts its draws and protocols", 20,
      Grid{{64}, 4, 11, 0.9},
      [&samples](std::uint64_t seed) {
        samples.fetch_add(1, std::memory_order_relaxed);
        return gnp_instance(20, 0.3, seed);
      },
      [&protocols](std::size_t budget) {
        protocols.fetch_add(1, std::memory_order_relaxed);
        return std::make_unique<protocols::BudgetedMatching>(budget);
      },
      is_maximal);
  const std::vector<std::size_t> budgets{16, 64, 256};

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("at " + std::to_string(threads) + " threads");
    parallel::ThreadPool pool(threads);
    samples = 0;
    protocols = 0;
    const core::SweepResult swept = core::sweep_budgets(
        s, budgets, /*trials=*/5, /*seed=*/3, /*target_rate=*/0.9, &pool);
    EXPECT_EQ(swept.points.size(), 3u);
    EXPECT_EQ(samples.load(), 5u);
    EXPECT_EQ(protocols.load(), 15u);

    samples = 0;
    protocols = 0;
    const core::SweepResult empty = core::sweep_budgets(
        s, {}, /*trials=*/5, /*seed=*/3, /*target_rate=*/0.9, &pool);
    EXPECT_TRUE(empty.points.empty());
    EXPECT_FALSE(empty.threshold_budget.has_value());
    EXPECT_EQ(samples.load(), 0u);
    EXPECT_EQ(protocols.load(), 0u);
  }
}

}  // namespace
}  // namespace ds::scenario
