// Satellite 3's in-repo half: every registered scenario runs one trial
// through BOTH execution paths — the in-process simulated runner
// (LocalSource) and the wire referee/player pair over a loopback socket
// (ShardedWireSource) — and the outcomes must agree exactly: same success
// verdict, same realized max bits, same output hash on the referee, the
// player, and the simulation.  This is the contract that lets
// tools/distsketch_service --scenario <id> serve any family with zero
// per-scenario harness code.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "scenario/registry.h"
#include "service/referee_service.h"
#include "util/rng.h"
#include "wire/loopback.h"

namespace ds::scenario {
namespace {

constexpr std::chrono::milliseconds kTimeout{5000};

struct WireRun {
  TrialOutcome referee;
  std::uint64_t player_hash = 0;
};

// One player owning all of [0, n), joined to the referee by a loopback
// pair; the player runs on its own thread because play_trial blocks
// awaiting the result broadcast.
WireRun run_over_loopback(const Scenario& s, std::size_t budget,
                          std::uint64_t trial_seed) {
  wire::LoopbackPair pair = wire::make_loopback_pair();
  std::vector<graph::Vertex> owned(s.num_vertices());
  std::iota(owned.begin(), owned.end(), graph::Vertex{0});

  WireRun run;
  std::thread player([&] {
    run.player_hash =
        s.play_trial(*pair.player_side, owned, budget, trial_seed, kTimeout);
  });

  std::vector<std::unique_ptr<wire::Link>> links;
  links.push_back(std::move(pair.referee_side));
  // The coin seed here is irrelevant: serve_trial keys this trial's coins
  // from trial_seed (kCoinTag), same as the player and the simulation.
  service::RefereeService referee(std::move(links), /*coin_seed=*/0,
                                  kTimeout);
  run.referee = s.serve_trial(referee, budget, trial_seed);
  player.join();
  return run;
}

TEST(ScenarioSmoke, SimEqualsWireForEveryRegisteredScenario) {
  for (const Scenario* s : all()) {
    SCOPED_TRACE(std::string(s->id()));
    const std::size_t budget = s->default_grid().budgets.back();
    const std::uint64_t trial_seed =
        util::derive_seed(s->default_grid().seed, 0);

    const TrialOutcome sim = s->run_trial(budget, trial_seed);
    const WireRun wire = run_over_loopback(*s, budget, trial_seed);

    EXPECT_EQ(wire.referee.success, sim.success);
    EXPECT_EQ(wire.referee.max_bits, sim.max_bits);
    EXPECT_EQ(wire.referee.output_hash, sim.output_hash);
    EXPECT_EQ(wire.player_hash, sim.output_hash);
  }
}

TEST(ScenarioSmoke, WirePathIsDeterministicInTheTrialSeed) {
  // Two wire runs with the same trial seed produce the same outcome; a
  // different seed changes the instance (and almost surely the hash).
  const Scenario* s = find("easy-cc");
  ASSERT_NE(s, nullptr);
  const std::size_t budget = s->default_grid().budgets.back();
  const WireRun a = run_over_loopback(*s, budget, 1001);
  const WireRun b = run_over_loopback(*s, budget, 1001);
  EXPECT_EQ(a.referee.output_hash, b.referee.output_hash);
  EXPECT_EQ(a.referee.max_bits, b.referee.max_bits);
  EXPECT_EQ(a.referee.success, b.referee.success);
  EXPECT_EQ(a.player_hash, b.player_hash);

  const WireRun c = run_over_loopback(*s, budget, 1002);
  EXPECT_NE(c.referee.output_hash, a.referee.output_hash);
}

TEST(ScenarioSmoke, SmallestBudgetAlsoRoundTrips) {
  // The degenerate end of each grid must survive the wire too (tiny
  // sketches, possibly empty outputs).
  for (const Scenario* s : all()) {
    SCOPED_TRACE(std::string(s->id()));
    const std::size_t budget = s->default_grid().budgets.front();
    const std::uint64_t trial_seed =
        util::derive_seed(s->default_grid().seed, 1);
    const TrialOutcome sim = s->run_trial(budget, trial_seed);
    const WireRun wire = run_over_loopback(*s, budget, trial_seed);
    EXPECT_EQ(wire.referee.output_hash, sim.output_hash);
    EXPECT_EQ(wire.referee.max_bits, sim.max_bits);
    EXPECT_EQ(wire.referee.success, sim.success);
    EXPECT_EQ(wire.player_hash, sim.output_hash);
  }
}

}  // namespace
}  // namespace ds::scenario
