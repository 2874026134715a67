// The determinism contract of docs/PARALLELISM.md, asserted end to end:
// every harness that fans out across the thread pool — sketch collection,
// budget sweeps (of every registered scenario), the audited runner, the
// exhaustive protocol search — must produce BIT-identical outputs and
// identical CommStats at 1, 2, and 8 threads.  These tests are also the
// payload of the CI tsan job.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "audit/audited_runner.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "graph/generators.h"
#include "lowerbound/protocol_search.h"
#include "model/runner.h"
#include "parallel/thread_pool.h"
#include "protocols/sampled_matching.h"
#include "protocols/two_round_matching.h"
#include "rs/rs_graph.h"
#include "scenario/registry.h"
#include "util/rng.h"
#include "util/stats.h"

namespace ds {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

void expect_same_comm(const model::CommStats& a, const model::CommStats& b,
                      std::size_t threads) {
  EXPECT_EQ(a.max_bits, b.max_bits) << "at " << threads << " threads";
  EXPECT_EQ(a.total_bits, b.total_bits) << "at " << threads << " threads";
  EXPECT_EQ(a.num_players, b.num_players) << "at " << threads << " threads";
}

void expect_same_sketches(const std::vector<util::BitString>& a,
                          const std::vector<util::BitString>& b,
                          std::size_t threads) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t v = 0; v < a.size(); ++v) {
    EXPECT_EQ(a[v].bit_count(), b[v].bit_count())
        << "player " << v << " at " << threads << " threads";
    EXPECT_EQ(a[v].words(), b[v].words())
        << "player " << v << " at " << threads << " threads";
  }
}

TEST(ParallelDeterminism, CollectSketchesBitIdenticalAcrossThreadCounts) {
  util::Rng rng(11);
  const graph::Graph g = graph::gnp(150, 0.08, rng);
  const protocols::BudgetedMatching protocol(96);
  const model::PublicCoins coins(1234);

  parallel::ThreadPool reference_pool(1);
  model::CommStats reference_comm;
  const auto reference = model::collect_sketches(
      g, protocol, coins, reference_comm, &reference_pool);

  for (const std::size_t threads : kThreadCounts) {
    parallel::ThreadPool pool(threads);
    model::CommStats comm;
    const auto sketches =
        model::collect_sketches(g, protocol, coins, comm, &pool);
    expect_same_sketches(reference, sketches, threads);
    expect_same_comm(reference_comm, comm, threads);
  }
}

TEST(ParallelDeterminism, RunProtocolOutputIdenticalAcrossThreadCounts) {
  util::Rng rng(13);
  const graph::Graph g = graph::gnp(100, 0.1, rng);
  const protocols::BudgetedMatching protocol(128);
  const model::PublicCoins coins(77);

  parallel::ThreadPool serial(1);
  const auto reference = model::run_protocol(g, protocol, coins, &serial);
  for (const std::size_t threads : kThreadCounts) {
    parallel::ThreadPool pool(threads);
    const auto run = model::run_protocol(g, protocol, coins, &pool);
    EXPECT_EQ(run.output, reference.output) << "at " << threads << " threads";
    expect_same_comm(reference.comm, run.comm, threads);
  }
}

/// The sweep written out budget-major: for each budget, trial t runs on
/// its own draw of derive_seed(seed, t) through Scenario::run_trial, and
/// the outcomes fold in trial order.  It shares no code with the
/// trial-major sweep_budgets, so a sweep whose budgets leak state into
/// each other through a shared instance differs from it.
core::SweepResult budget_major_sweep(const scenario::Scenario& s,
                                     const std::vector<std::size_t>& budgets,
                                     std::size_t trials, std::uint64_t seed,
                                     double target_rate) {
  parallel::ThreadPool serial(1);
  core::SweepResult result;
  for (const std::size_t budget : budgets) {
    core::SweepPoint point;
    point.budget_bits = budget;
    for (std::size_t t = 0; t < trials; ++t) {
      const scenario::TrialOutcome outcome =
          s.run_trial(budget, util::derive_seed(seed, t), &serial);
      ++point.trials;
      if (outcome.success) ++point.successes;
      point.max_bits_seen = std::max(point.max_bits_seen, outcome.max_bits);
    }
    point.rate = point.trials == 0
                     ? 0.0
                     : static_cast<double>(point.successes) /
                           static_cast<double>(point.trials);
    point.ci = util::wilson_interval(point.successes, point.trials);
    if (!result.threshold_budget.has_value() && point.rate >= target_rate) {
      result.threshold_budget = budget;
    }
    result.points.push_back(point);
  }
  return result;
}

/// One budget sweep of `s` at every thread count, 1 included, against
/// the budget-major oracle; doubles are compared bit for bit.
void expect_sweep_identical(const scenario::Scenario& s,
                            const std::vector<std::size_t>& budgets,
                            std::size_t trials, std::uint64_t seed,
                            double target_rate) {
  SCOPED_TRACE(std::string(s.id()));
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const core::SweepResult reference =
      budget_major_sweep(s, budgets, trials, seed, target_rate);
  for (const std::size_t threads : kThreadCounts) {
    parallel::ThreadPool pool(threads);
    const core::SweepResult result =
        core::sweep_budgets(s, budgets, trials, seed, target_rate, &pool);
    EXPECT_EQ(result.threshold_budget, reference.threshold_budget)
        << "at " << threads << " threads";
    ASSERT_EQ(result.points.size(), reference.points.size());
    for (std::size_t p = 0; p < result.points.size(); ++p) {
      const core::SweepPoint& got = result.points[p];
      const core::SweepPoint& want = reference.points[p];
      SCOPED_TRACE("budget " + std::to_string(budgets[p]) + " at " +
                   std::to_string(threads) + " threads");
      EXPECT_EQ(got.budget_bits, want.budget_bits);
      EXPECT_EQ(got.trials, want.trials);
      EXPECT_EQ(got.successes, want.successes);
      EXPECT_EQ(got.max_bits_seen, want.max_bits_seen);
      EXPECT_EQ(bits(got.rate), bits(want.rate));
      EXPECT_EQ(bits(got.ci.lo), bits(want.ci.lo));
      EXPECT_EQ(bits(got.ci.hi), bits(want.ci.hi));
    }
  }
}

TEST(ParallelDeterminism, SweepBitIdenticalAcrossThreadCounts) {
  const scenario::Scenario* gnp_matching = scenario::find("gnp-matching");
  ASSERT_NE(gnp_matching, nullptr);
  expect_sweep_identical(*gnp_matching, {1, 64, 2048}, /*trials=*/16,
                         /*seed=*/7, /*target_rate=*/0.99);
  // Every registered scenario on its own default grid, trials capped at
  // 8 to keep the whole registry test-sized.
  for (const scenario::Scenario* s : scenario::all()) {
    const scenario::Grid& grid = s->default_grid();
    expect_sweep_identical(*s, grid.budgets,
                           std::min<std::size_t>(grid.trials, 8), grid.seed,
                           grid.target_rate);
  }
}

TEST(ParallelDeterminism, SweepMatchesPreParallelSerialSemantics) {
  // Guards the seed-derivation scheme itself: derive_seed(master, i) must
  // equal the mix64(master, i) the serial sweep used before the pool
  // existed, so historical sweep numbers remain reproducible.
  EXPECT_EQ(util::derive_seed(7, 3), util::mix64(7, 3));
  EXPECT_EQ(util::derive_seed(0, 0), util::mix64(0, 0));
  // And distinct trials get distinct, order-free seeds.
  EXPECT_NE(util::derive_seed(7, 3), util::derive_seed(7, 4));
  EXPECT_NE(util::derive_seed(7, 3), util::derive_seed(8, 3));
}

TEST(ParallelDeterminism, AuditedRunnerVerdictIdenticalAcrossThreadCounts) {
  util::Rng rng(17);
  const graph::Graph g = graph::gnp(80, 0.1, rng);
  const protocols::BudgetedMatching protocol(64);
  const audit::AuditedRunner runner(4242);

  parallel::ThreadPool serial(1);
  const auto reference = runner.run(g, protocol, &serial);
  for (const std::size_t threads : kThreadCounts) {
    parallel::ThreadPool pool(threads);
    const auto audited = runner.run(g, protocol, &pool);
    EXPECT_EQ(audited.output, reference.output)
        << "at " << threads << " threads";
    expect_same_comm(reference.comm, audited.comm, threads);
    EXPECT_EQ(audited.report.players_audited,
              reference.report.players_audited);
    EXPECT_EQ(audited.report.encode_calls, reference.report.encode_calls);
    EXPECT_EQ(audited.report.bits_verified, reference.report.bits_verified);
  }
}

TEST(ParallelDeterminism, AdaptiveRunIdenticalAcrossThreadCounts) {
  util::Rng rng(19);
  const graph::Graph g = graph::gnp(64, 0.15, rng);
  const protocols::TwoRoundMatching protocol(4, 8);
  const model::PublicCoins coins(99);

  parallel::ThreadPool serial(1);
  const auto reference = model::run_adaptive(g, protocol, coins, &serial);
  for (const std::size_t threads : kThreadCounts) {
    parallel::ThreadPool pool(threads);
    const auto run = model::run_adaptive(g, protocol, coins, &pool);
    EXPECT_EQ(run.output, reference.output) << "at " << threads << " threads";
    expect_same_comm(reference.comm, run.comm, threads);
    EXPECT_EQ(run.broadcast_bits, reference.broadcast_bits);
    ASSERT_EQ(run.by_round.size(), reference.by_round.size());
    for (std::size_t r = 0; r < run.by_round.size(); ++r) {
      expect_same_comm(reference.by_round[r], run.by_round[r], threads);
    }
  }
}

TEST(ParallelDeterminism, ProtocolSearchIdenticalAcrossThreadCounts) {
  const rs::RsGraph base = rs::book_rs(1, 2);

  parallel::ThreadPool serial(1);
  const auto reference =
      lowerbound::search_degree_protocols(base, 2, /*bits=*/1,
                                          /*degree_cap=*/3, &serial);
  for (const std::size_t threads : kThreadCounts) {
    parallel::ThreadPool pool(threads);
    const auto result = lowerbound::search_degree_protocols(
        base, 2, /*bits=*/1, /*degree_cap=*/3, &pool);
    EXPECT_EQ(result.best_success, reference.best_success)
        << "at " << threads << " threads";
    EXPECT_EQ(result.fano_cap_at_best, reference.fano_cap_at_best);
    EXPECT_EQ(result.protocols_searched, reference.protocols_searched);
    EXPECT_EQ(result.best_public_table, reference.best_public_table);
    EXPECT_EQ(result.best_unique_table, reference.best_unique_table);
    EXPECT_EQ(result.silent_baseline, reference.silent_baseline);
  }
}

}  // namespace
}  // namespace ds
