// E2 — Claim 3.1: with probability >= 1 - 2^{-kr/10} over G ~ D_MM, every
// maximal matching has at least k*r/4 unique-unique edges.
//
// We audit three maximal matchings per sample — canonical greedy, random
// greedy, and the adversarial greedy that grabs public-vertex edges first
// — and report the minimum unique-unique count seen vs the threshold.
// Run in two regimes: the paper's k = t coupling, and boosted k > t at
// small m (the proof never uses k = t for this claim).  The proof's
// finite-size inequality k*r/3 - (N-2r) >= k*r/4 certifies the k = t rows
// only from m = 365 (r = 64) on, but the claim holds in every sampled
// trial of every row, m = 60 and m = 200 (r = 16 and 32) included.
//
// Checked: holds = trials on every row, so every audited matching has at
// least k*r/4 unique-unique edges.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "claims.h"
#include "core/report.h"
#include "graph/matching.h"
#include "lowerbound/claims.h"
#include "rs/rs_graph.h"

namespace {

using ds::lowerbound::Claim31Audit;
using ds::lowerbound::DmmInstance;

struct RegimeRow {
  std::uint64_t m, k;
  std::size_t trials = 0, holds = 0;
  std::size_t min_uu = SIZE_MAX, threshold = 0;
  double avg_union = 0, avg_uu = 0;
};

RegimeRow run_regime(std::uint64_t m, std::uint64_t k, std::size_t trials,
                     std::uint64_t seed) {
  const ds::rs::RsGraph base = ds::rs::rs_graph(m);
  RegimeRow row;
  row.m = m;
  row.k = k;
  ds::util::Rng rng(seed);
  for (std::size_t trial = 0; trial < trials; ++trial) {
    const DmmInstance inst = ds::lowerbound::sample_dmm(base, k, rng);
    row.threshold = inst.params.claim31_threshold();
    bool all_hold = true;
    const auto audit_one = [&](const ds::graph::Matching& matching) {
      const Claim31Audit audit =
          ds::lowerbound::audit_claim31(inst, matching);
      all_hold &= audit.claim_holds;
      row.min_uu = std::min(row.min_uu, audit.unique_unique);
      row.avg_union += static_cast<double>(audit.union_special_size);
      row.avg_uu += static_cast<double>(audit.unique_unique);
    };
    audit_one(ds::graph::greedy_matching(inst.g));
    audit_one(ds::graph::greedy_matching_random(inst.g, rng));
    audit_one(ds::lowerbound::adversarial_maximal_matching(inst));
    ++row.trials;
    row.holds += all_hold;
  }
  row.avg_union /= static_cast<double>(3 * row.trials);
  row.avg_uu /= static_cast<double>(3 * row.trials);
  return row;
}

void print_experiment(ds::bench::Claims& claims) {
  std::cout << "=== E2: Claim 3.1 — forced unique-unique edges in every "
               "maximal matching ===\n";
  ds::core::Table table({"m", "k", "kr", "thr=kr/4", "min u-u seen",
                         "avg u-u", "avg |union Mi|", "holds", "2^-kr/10"});
  struct Regime {
    std::uint64_t m, k;
    std::size_t trials;
  };
  // k = t regime at growing m, plus boosted-k regimes for small m.
  const Regime regimes[] = {
      {12, 150, 20}, {20, 120, 20}, {40, 200, 10},
      {60, 60, 5},   {200, 200, 3}, {365, 365, 2},
  };
  for (const Regime& regime : regimes) {
    const RegimeRow row = run_regime(regime.m, regime.k, regime.trials, 99);
    const ds::rs::RsParameters p = ds::rs::rs_parameters(regime.m);
    const double kr = static_cast<double>(regime.k * p.r);
    table.add_row(
        {ds::core::fmt(row.m), ds::core::fmt(row.k), ds::core::fmt(kr, 0),
         ds::core::fmt(static_cast<std::uint64_t>(row.threshold)),
         ds::core::fmt(static_cast<std::uint64_t>(row.min_uu)),
         ds::core::fmt(row.avg_uu, 1), ds::core::fmt(row.avg_union, 1),
         ds::core::fmt(static_cast<std::uint64_t>(row.holds)) + "/" +
             ds::core::fmt(static_cast<std::uint64_t>(row.trials)),
         ds::core::fmt(std::exp2(-kr / 10.0), 6)});
    claims.expect(row.holds == row.trials && row.min_uu >= row.threshold,
                  "E2 m=" + std::to_string(row.m) + " k=" +
                      std::to_string(row.k) +
                      ": a matching has fewer than kr/4 unique-unique edges");
  }
  table.print(std::cout);
  std::cout
      << "\nPaper prediction: 'holds' in every trial once k*r/3 exceeds"
         "\n(N-2r) + k*r/4 (the k=t rows need m large for that; the"
         "\nboosted-k rows show the same mechanism at laptop scale), and"
         "\navg |union M_i| concentrates at k*r/2.\n\n";
}

}  // namespace

int main() {
  ds::bench::Claims claims;
  print_experiment(claims);
  return claims.exit_code();
}
