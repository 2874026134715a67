// E3 — Theorem 1 (shape): one-round maximal matching on D_MM needs
// per-player sketches of ~r*log(n) ~ sqrt(n)/e^{Theta(sqrt(log n))} bits.
//
// Protocol family: BudgetedMatching (random edge reports).  Three scores
// per budget:
//   * P[maximal]  — the output is a maximal matching of G (the problem
//                   itself; needs near-total graph knowledge and so sits
//                   far above the lower bound, as it may);
//   * P[special]  — every surviving special edge was reported to the
//                   referee.  This is a NECESSARY condition for any
//                   referee to output the forced unique-unique edges
//                   (Claim 3.1), and its threshold is the clean ~r*log n
//                   phase transition the theorem predicts: a unique
//                   vertex cannot tell which of its ~r/2 incident edges
//                   is special (Lemma 3.5's blindness), so it must report
//                   essentially all of them;
//   * max bits    — realized worst-case player message.
//
// Checked: every m finds a P[special] threshold, within a factor 2 of
// r*log n; in E3b success reaches 1 only when every player speaks; in
// E3c the vertex model's ratio is at least the edge partition's at
// every budget.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "claims.h"
#include "core/experiment.h"
#include "core/report.h"
#include "lowerbound/dmm.h"
#include "model/runner.h"
#include "graph/hopcroft_karp.h"
#include "model/edge_partition.h"
#include "parallel/thread_pool.h"
#include "protocols/budgeted.h"
#include "protocols/edge_partition_matching.h"
#include "protocols/sampled_matching.h"
#include "rs/rs_graph.h"
#include "scenario/scenario.h"

namespace {

using ds::lowerbound::DmmInstance;

struct Thresholds {
  std::uint64_t m = 0;
  std::uint32_t n = 0;
  std::uint64_t r = 0;
  std::size_t special = 0;  // bits for >= 0.9 P[special]
  std::size_t maximal = 0;  // bits for >= 0.9 P[maximal]
};

bool all_special_reported(const DmmInstance& inst,
                          const ds::graph::Graph& known) {
  for (const auto& mi : inst.special_surviving) {
    for (const ds::graph::Edge& e : mi) {
      if (!known.has_edge(e.u, e.v)) return false;
    }
  }
  return true;
}

Thresholds sweep_instance(std::uint64_t m, std::size_t trials,
                          std::uint64_t seed, bool print) {
  const ds::rs::RsGraph base = ds::rs::rs_graph(m);
  const ds::lowerbound::DmmParameters params =
      ds::lowerbound::dmm_parameters(base, base.t());

  Thresholds result;
  result.m = m;
  result.n = params.n;
  result.r = params.r;

  const unsigned width = ds::util::bit_width_for(params.n);
  // Ladder spans from one edge-id to beyond the densest player's full
  // report (public players see ~k*r/2 edges).
  const std::size_t cap =
      static_cast<std::size_t>(params.k * params.r) * width;
  const std::vector<std::size_t> budgets =
      ds::scenario::geometric_ladder(width, cap, 2.0);

  if (print) {
    std::cout << "--- D_MM with m=" << m << ": N=" << params.big_n
              << " r=" << params.r << " t=k=" << params.t << " n=" << params.n
              << " (r*log n ~ " << params.r * width << " bits) ---\n";
  }
  ds::core::Table table(
      {"budget bits", "P[special]", "P[maximal]", "max bits seen"});

  struct TrialOutcome {
    bool special = false;
    bool maximal = false;
    std::size_t max_bits = 0;
  };
  for (std::size_t budget : budgets) {
    const ds::protocols::BudgetedMatching protocol(budget);
    // Trials fan out across the global pool; each trial derives its own
    // seed counter-style, so every (budget, trial) data point is
    // independently reproducible and identical at any thread count.
    std::vector<TrialOutcome> outcomes(trials);
    ds::parallel::parallel_for(nullptr, 0, trials, [&](std::size_t trial) {
      const std::uint64_t trial_seed = ds::util::derive_seed(seed, trial);
      ds::util::Rng trial_rng(trial_seed);
      const DmmInstance inst =
          ds::lowerbound::sample_dmm(base, params.t, trial_rng);
      const ds::model::PublicCoins coins(
          ds::util::derive_seed(trial_seed, 0xC01));
      ds::model::CommStats comm;
      const auto sketches =
          ds::model::collect_sketches(inst.g, protocol, coins, comm);
      const ds::graph::Graph known =
          ds::protocols::decode_reported_graph(params.n, sketches);
      const auto matching = protocol.decode(params.n, sketches, coins);
      outcomes[trial] = {all_special_reported(inst, known),
                         ds::core::score_matching(inst.g, matching).maximal,
                         comm.max_bits};
    });
    std::size_t special = 0, maximal = 0, max_bits = 0;
    for (const TrialOutcome& outcome : outcomes) {
      special += outcome.special;
      maximal += outcome.maximal;
      max_bits = std::max(max_bits, outcome.max_bits);
    }
    const double ps = static_cast<double>(special) / static_cast<double>(trials);
    const double pm = static_cast<double>(maximal) / static_cast<double>(trials);
    if (result.special == 0 && ps >= 0.9) result.special = budget;
    if (result.maximal == 0 && pm >= 0.9) result.maximal = budget;
    table.add_row({ds::core::fmt(static_cast<std::uint64_t>(budget)),
                   ds::core::fmt(ps, 2), ds::core::fmt(pm, 2),
                   ds::core::fmt(static_cast<std::uint64_t>(max_bits))});
  }
  if (print) {
    table.print(std::cout);
    std::cout << '\n';
  }
  return result;
}

void print_experiment(ds::bench::Claims& claims) {
  std::cout << "=== E3: Theorem 1 shape — budget sweep for one-round "
               "maximal matching on D_MM ===\n\n";
  std::vector<Thresholds> rows;
  for (std::uint64_t m : {8ULL, 16ULL, 32ULL, 64ULL}) {
    rows.push_back(sweep_instance(m, /*trials=*/10, /*seed=*/7, true));
  }
  ds::core::Table summary({"m", "n", "r", "sqrt(n)", "r*log n",
                           "thr[special]", "thr[maximal]",
                           "thr[special]/(r*log n)"});
  for (const Thresholds& t : rows) {
    const unsigned width = ds::util::bit_width_for(t.n);
    const double rlogn = static_cast<double>(t.r) * width;
    const double band = static_cast<double>(t.special) / rlogn;
    summary.add_row(
        {ds::core::fmt(t.m), ds::core::fmt(std::uint64_t{t.n}),
         ds::core::fmt(t.r),
         ds::core::fmt(std::sqrt(static_cast<double>(t.n)), 1),
         ds::core::fmt(rlogn, 0),
         ds::core::fmt(static_cast<std::uint64_t>(t.special)),
         t.maximal > 0 ? ds::core::fmt(static_cast<std::uint64_t>(t.maximal))
                       : std::string("> cap"),
         ds::core::fmt(band, 2)});
    claims.expect(t.special > 0 && band >= 0.5 && band <= 2.0,
                  "E3 m=" + std::to_string(t.m) +
                      ": thr[special]/(r*log n) is not in [0.5, 2]");
  }
  std::cout << "Summary (threshold = smallest budget with >= 0.9 rate):\n";
  summary.print(std::cout);
  std::cout
      << "\nPaper prediction: thr[special] tracks r*log n (last column"
         "\n~constant across m), i.e. ~sqrt(n)/e^{Theta(sqrt(log n))}:"
         "\nthe sqrt(n)-scale wall Theorem 1 proves.  thr[maximal] is"
         "\nhigher still.  Contrast with E6/E7, where polylog(n) bits"
         "\nsuffice for spanning forest and coloring.\n\n";
}

// The remark after Theorem 1: the bound extends from worst-case to
// AVERAGE communication — intuitively because a simultaneous protocol
// cannot know which players hold the hard part of the input, so it cannot
// concentrate its budget.  Probe: give a generous budget to a random
// fraction f of players (silence for the rest) and watch success track f.
void print_partial_speakers(ds::bench::Claims& claims) {
  std::cout << "=== E3b: average-communication probe — random fraction of "
               "speakers ===\n";
  const ds::rs::RsGraph base = ds::rs::rs_graph(16);
  const ds::lowerbound::DmmParameters params =
      ds::lowerbound::dmm_parameters(base, base.t());
  const unsigned width = ds::util::bit_width_for(params.n);
  const std::size_t generous = 4 * params.r * width;

  ds::core::Table table({"fraction speaking", "avg bits/player",
                         "P[special known]"});
  for (double fraction : {0.25, 0.5, 0.75, 0.9, 1.0}) {
    std::size_t known = 0;
    double avg_bits = 0;
    constexpr std::size_t kTrials = 10;
    ds::util::Rng rng(71);
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      const DmmInstance inst =
          ds::lowerbound::sample_dmm(base, params.t, rng);
      const ds::model::PublicCoins coins(ds::util::mix64(73, trial));
      // Speakers chosen by public coin (per vertex).
      const ds::protocols::BudgetedMatching protocol(generous);
      ds::model::CommStats comm;
      auto sketches =
          ds::model::collect_sketches(inst.g, protocol, coins, comm);
      ds::util::Rng mute_rng(ds::util::mix64(79, trial));
      ds::model::CommStats muted_comm;
      for (ds::graph::Vertex v = 0; v < params.n; ++v) {
        if (!mute_rng.next_bernoulli(fraction)) {
          sketches[v] = ds::util::BitString();  // silenced
        }
        // The real run above is charged through ChargeSheet inside
        // collect_sketches; this recount prices the muted what-if.
        // distsketch-lint: allow(charge-site) -- counterfactual cost of a muted transcript, not a protocol charge
        muted_comm.record(sketches[v].bit_count());
      }
      const ds::graph::Graph seen =
          ds::protocols::decode_reported_graph(params.n, sketches);
      known += all_special_reported(inst, seen);
      avg_bits += muted_comm.avg_bits();
    }
    table.add_row({ds::core::fmt(fraction, 2),
                   ds::core::fmt(avg_bits / kTrials, 1),
                   ds::core::fmt(static_cast<double>(known) / kTrials, 2)});
    claims.expect((known == kTrials) == (fraction == 1.0),
                  "E3b fraction " + ds::core::fmt(fraction, 2) +
                      (fraction == 1.0 ? ": P[special known] < 1"
                                       : ": P[special known] = 1"));
  }
  table.print(std::cout);
  std::cout
      << "\nEven at 90% speakers, some surviving special edge has both"
         "\nendpoints silenced with decent probability (each special edge"
         "\nneeds one of exactly TWO unique vertices to speak) — success"
         "\nrequires nearly everyone to pay, so the average cost tracks"
         "\nthe worst case, as the remark asserts.\n\n";
}

// The technique's origin (§1.2): [AKLY16] proved the matching lower
// bound in the EDGE-partitioned model; the paper's hard part was lifting
// it to vertex partitioning WITH edge sharing.  Quantify the difference:
// approximation ratio (vs the exact maximum matching) at equal per-player
// budgets, same D_MM instances, both partitions.
void print_partition_comparison(ds::bench::Claims& claims) {
  std::cout << "=== E3c: vertex-partition (edge sharing) vs edge-partition "
               "[AKLY16] ===\n";
  const ds::rs::RsGraph base = ds::rs::rs_graph(16);
  const ds::lowerbound::DmmParameters params =
      ds::lowerbound::dmm_parameters(base, base.t());
  const unsigned width = ds::util::bit_width_for(params.n);

  ds::core::Table table({"budget bits", "approx ratio (vertex)",
                         "approx ratio (edge-part, 8 players)"});
  for (std::size_t budget : {width * 1, width * 2, width * 4, width * 16,
                             width * 64}) {
    double vertex_ratio = 0, edge_ratio = 0;
    constexpr std::size_t kTrials = 8;
    ds::util::Rng rng(91);
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      const DmmInstance inst =
          ds::lowerbound::sample_dmm(base, params.t, rng);
      const double maximum = static_cast<double>(
          ds::graph::maximum_bipartite_matching(inst.g).size());
      const ds::model::PublicCoins coins(ds::util::mix64(95, trial));

      const ds::protocols::BudgetedMatching vertex(budget);
      const auto vr = ds::model::run_protocol(inst.g, vertex, coins);
      vertex_ratio += static_cast<double>(vr.output.size()) / maximum;

      const auto partitioned =
          ds::model::partition_edges_randomly(inst.g, 8, rng);
      const ds::protocols::EdgePartitionMatching edge(budget);
      const auto er =
          ds::model::run_edge_partitioned(partitioned, edge, coins);
      edge_ratio += static_cast<double>(er.output.size()) / maximum;
    }
    table.add_row({ds::core::fmt(static_cast<std::uint64_t>(budget)),
                   ds::core::fmt(vertex_ratio / kTrials, 2),
                   ds::core::fmt(edge_ratio / kTrials, 2)});
    claims.expect(vertex_ratio >= edge_ratio,
                  "E3c budget " + std::to_string(budget) +
                      ": vertex ratio < edge-partition ratio");
  }
  table.print(std::cout);
  std::cout
      << "\nAt equal per-player budgets the vertex model races to the"
         "\ngreedy plateau (~0.87; n players, each edge reported by two)"
         "\nwhile 8 edge-"
         "\npartitioned players are bandwidth-starved — the reason the"
         "\npaper could not just replay [AKLY16] and needed the public/"
         "\nunique-player information argument.\n\n";
}

}  // namespace

int main() {
  ds::bench::Claims claims;
  print_experiment(claims);
  print_partial_speakers(claims);
  print_partition_comparison(claims);
  return claims.exit_code();
}
