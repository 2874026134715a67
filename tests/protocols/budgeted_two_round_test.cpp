#include "protocols/budgeted_two_round.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/matching.h"
#include "lowerbound/dmm.h"
#include "model/runner.h"
#include "rs/rs_graph.h"

namespace ds::protocols {
namespace {

using graph::Graph;

TEST(BudgetedTwoRound, GenerousBudgetsAreMaximal) {
  util::Rng rng(1);
  for (std::uint64_t rep = 0; rep < 8; ++rep) {
    const Graph g = graph::gnp(60, 0.12, rng);
    const model::PublicCoins coins(100 + rep);
    const BudgetedTwoRoundMatching protocol(1 << 14, 1 << 14);
    const auto run = model::run_protocol(g, protocol, coins);
    EXPECT_TRUE(graph::is_maximal_matching(g, run.output));
  }
}

TEST(BudgetedTwoRound, OutputAlwaysValid) {
  util::Rng rng(2);
  for (std::size_t budget : {16ULL, 64ULL, 256ULL}) {
    const Graph g = graph::gnp(50, 0.2, rng);
    const model::PublicCoins coins(200 + budget);
    const BudgetedTwoRoundMatching protocol(budget, budget);
    const auto run = model::run_protocol(g, protocol, coins);
    EXPECT_TRUE(graph::is_valid_matching(g, run.output));
  }
}

TEST(BudgetedTwoRound, RespectsPerRoundBudgets) {
  util::Rng rng(3);
  const Graph g = graph::gnp(80, 0.3, rng);
  const model::PublicCoins coins(4);
  const BudgetedTwoRoundMatching protocol(100, 50);
  const auto run = model::run_protocol(g, protocol, coins);
  ASSERT_EQ(run.by_round.size(), 2u);
  EXPECT_LE(run.by_round[0].max_bits, 100u);
  EXPECT_LE(run.by_round[1].max_bits, 50u);
}

TEST(BudgetedTwoRound, AdaptivityBeatsOneRoundOnDmm) {
  // Same TOTAL budget: one-round protocols must spread it blindly; the
  // two-round protocol spends round 1 only on the residual. At a budget
  // where the one-round protocol is far from maximal, the two-round one
  // already succeeds most of the time.
  const rs::RsGraph base = rs::rs_graph(12);
  util::Rng rng(5);
  std::size_t two_round_ok = 0, one_round_ok = 0;
  constexpr std::size_t kTrials = 8;
  const std::size_t half_budget = 60;  // r*log n ~ 54 here; half each round
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    const auto inst = lowerbound::sample_dmm(base, base.t(), rng);
    const model::PublicCoins coins(util::mix64(300, trial));
    const BudgetedTwoRoundMatching two(half_budget, half_budget);
    const auto run2 = model::run_protocol(inst.g, two, coins);
    two_round_ok += graph::is_maximal_matching(inst.g, run2.output);

    // One round with the combined budget.
    const BudgetedTwoRoundMatching one(2 * half_budget, 0);
    const auto run1 = model::run_protocol(inst.g, one, coins);
    one_round_ok += graph::is_maximal_matching(inst.g, run1.output);
  }
  EXPECT_GE(two_round_ok, one_round_ok);
}

TEST(BudgetedTwoRound, ZeroBudgetsProduceEmptyMatching) {
  util::Rng rng(6);
  const Graph g = graph::gnp(30, 0.2, rng);
  const model::PublicCoins coins(7);
  const BudgetedTwoRoundMatching protocol(0, 0);
  const auto run = model::run_protocol(g, protocol, coins);
  EXPECT_TRUE(run.output.empty());
}

}  // namespace
}  // namespace ds::protocols
