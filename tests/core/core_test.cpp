#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.h"
#include "core/report.h"
#include "core/sweep.h"
#include "graph/generators.h"
#include "protocols/sampled_matching.h"
#include "rs/rs_graph.h"
#include "scenario/registry.h"
#include "scenario/typed.h"

namespace ds::core {
namespace {

using graph::Graph;

TEST(Report, TableAlignsAndPrints) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22222"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22222"), std::string::npos);
  EXPECT_NE(text.find("-----"), std::string::npos);
}

TEST(Report, CsvEscaping) {
  Table table({"name", "value"});
  table.add_row({"with,comma", "with\"quote"});
  table.add_row({"plain", "1"});
  std::ostringstream out;
  table.print_csv(out);
  EXPECT_EQ(out.str(),
            "name,value\n\"with,comma\",\"with\"\"quote\"\nplain,1\n");
}

TEST(Report, Formatters) {
  EXPECT_EQ(fmt(0.12345, 3), "0.123");
  EXPECT_EQ(fmt(2.0, 1), "2.0");
  EXPECT_EQ(fmt(std::uint64_t{42}), "42");
  EXPECT_EQ(fmt_bool(true), "yes");
  EXPECT_EQ(fmt_bool(false), "NO");
}

TEST(Sweep, GeometricBudgets) {
  const auto budgets = scenario::geometric_ladder(4, 64, 2.0);
  const std::vector<std::size_t> expected{4, 8, 16, 32, 64};
  EXPECT_EQ(budgets, expected);
  const auto with_cap = scenario::geometric_ladder(10, 25, 2.0);
  EXPECT_EQ(with_cap.back(), 25u);
  EXPECT_EQ(with_cap.front(), 10u);
}

TEST(Sweep, MatchingSuccessMonotoneInBudget) {
  // On small G(n, p) the budgeted matching protocol's success rate climbs
  // from ~0 to 1 as the budget rises — the harness must see it.  The
  // registered gnp-matching scenario IS that configuration.
  const scenario::Scenario* s = scenario::find("gnp-matching");
  ASSERT_NE(s, nullptr);
  const std::vector<std::size_t> budgets{1, 2048};
  const SweepResult result =
      sweep_budgets(*s, budgets, /*trials=*/10, /*seed=*/7);
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_LT(result.points[0].rate, 0.5);
  EXPECT_EQ(result.points[1].rate, 1.0);
  ASSERT_TRUE(result.threshold_budget.has_value());
  EXPECT_EQ(*result.threshold_budget, 2048u);
}

TEST(Sweep, RecordsRealizedBits) {
  const scenario::InlineScenario<model::MatchingOutput> s(
      "bits-probe", "realized-bits probe", 20,
      scenario::Grid{{64}, 3, 9, 0.99},
      [](std::uint64_t seed) {
        util::Rng rng(seed);
        return scenario::Instance{graph::gnp(20, 0.3, rng), nullptr};
      },
      [](std::size_t budget) {
        return std::make_unique<protocols::BudgetedMatching>(budget);
      },
      [](const scenario::Instance&, const model::MatchingOutput&) {
        return true;
      });
  const std::vector<std::size_t> budgets{64};
  const SweepResult result = sweep_budgets(s, budgets, 3, 9);
  EXPECT_LE(result.points[0].max_bits_seen, 64u);
  EXPECT_GT(result.points[0].max_bits_seen, 0u);
}

TEST(Sweep, DefaultGridSweepsByScenarioId) {
  // sweep_scenario runs a registered family's own grid end to end —
  // easy-cc's clusters make maximal matching reachable at modest budgets.
  const scenario::Scenario* s = scenario::find("easy-cc");
  ASSERT_NE(s, nullptr);
  const SweepResult result = sweep_scenario(*s);
  ASSERT_EQ(result.points.size(), s->default_grid().budgets.size());
  ASSERT_TRUE(result.threshold_budget.has_value());
  EXPECT_GE(result.points.back().rate,
            s->default_grid().target_rate);
}

TEST(Experiment, ScoreMatchingTaxonomy) {
  const Graph g = graph::path(4);
  MatchingScore s = score_matching(g, std::vector<graph::Edge>{{0, 1}, {2, 3}});
  EXPECT_TRUE(s.maximal);
  s = score_matching(g, std::vector<graph::Edge>{{0, 1}});
  EXPECT_TRUE(s.valid);
  EXPECT_FALSE(s.maximal);
  s = score_matching(g, std::vector<graph::Edge>{{0, 2}});
  EXPECT_TRUE(s.structurally_matching);
  EXPECT_FALSE(s.valid);
  s = score_matching(g, std::vector<graph::Edge>{{0, 1}, {1, 2}});
  EXPECT_FALSE(s.structurally_matching);
}

TEST(Experiment, ScoreMisTaxonomy) {
  const Graph g = graph::path(4);
  MisScore s = score_mis(g, std::vector<graph::Vertex>{0, 2});
  EXPECT_TRUE(s.maximal);
  s = score_mis(g, std::vector<graph::Vertex>{0});
  EXPECT_TRUE(s.independent);
  EXPECT_FALSE(s.maximal);
  s = score_mis(g, std::vector<graph::Vertex>{0, 1});
  EXPECT_FALSE(s.independent);
}

TEST(Experiment, Remark36Success) {
  const rs::RsGraph base = rs::rs_graph(6);
  util::Rng rng(5);
  const lowerbound::DmmInstance inst =
      lowerbound::sample_dmm(base, base.t(), rng);
  // The full surviving special matching always qualifies (its size
  // concentrates at kr/2 > kr/4).
  EXPECT_TRUE(remark36_success(inst, inst.all_surviving_special()));
  // The empty matching never does (threshold kr/4 >= 1 here).
  ASSERT_GE(inst.params.claim31_threshold(), 1u);
  EXPECT_FALSE(remark36_success(inst, {}));
}

TEST(Experiment, Theorem1BoundArithmetic) {
  const Theorem1Bound bound = theorem1_bound(100);
  EXPECT_EQ(bound.big_n, 497u);
  EXPECT_EQ(bound.t, 100u);
  EXPECT_EQ(bound.k, bound.t);
  EXPECT_GT(bound.r, 10u);
  EXPECT_EQ(bound.n, bound.big_n - 2 * bound.r + 2 * bound.r * bound.k);
  EXPECT_NEAR(bound.info_lower,
              static_cast<double>(bound.k * bound.r) / 6.0, 1e-9);
  // b_lower = kr / (12 N).
  EXPECT_NEAR(bound.b_lower * 12.0 * static_cast<double>(bound.big_n),
              static_cast<double>(bound.k * bound.r), 1e-6);
  // The b = Omega(sqrt n) shape: b_lower should be a constant fraction of
  // sqrt(n) up to the e^{Theta(sqrt(log))} term — sanity: positive and
  // below sqrt(n).
  EXPECT_GT(bound.b_lower, 0.0);
  EXPECT_LT(bound.b_lower, bound.sqrt_n);
}

TEST(Experiment, Theorem1BoundGrowsWithM) {
  const Theorem1Bound small = theorem1_bound(50);
  const Theorem1Bound large = theorem1_bound(400);
  EXPECT_GT(large.b_lower, small.b_lower);
  EXPECT_GT(large.n, small.n);
}

}  // namespace
}  // namespace ds::core
