// A3 — ablations of the design decisions called out in DESIGN.md §4.
//
//  (a) AGM Boruvka rounds: success collapses when the sketch carries too
//      few independent samplers (reusing samplers across rounds would
//      correlate them; fewer rounds means Boruvka cannot finish).
//  (b) Bit-exact vs byte-rounded accounting: byte rounding shifts the E3
//      budget ladder but not the crossover's order of magnitude.
//  (c) Palette sparsification list size: the O(log n) constant matters —
//      below ~1 log n the conflict graph stops being list-colorable.
//  (d) Two-round MIS marking probability: too small leaves a dense
//      residual (round-1 blowup), too large makes round 0 itself heavy;
//      the sqrt(n) sweet spot is visible in max bits.
//
// Checked: AGM succeeds at the default rounds and fails at 1 round; the
// byte-rounding overhead stays below 1.5; palette lists fail at size 1
// and succeed from size 8; two-round MIS succeeds at every marking rate.
#include <cmath>
#include <iostream>

#include "claims.h"
#include "core/report.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/independent_set.h"
#include "model/runner.h"
#include "protocols/coloring.h"
#include "protocols/sampled_matching.h"
#include "protocols/spanning_forest.h"
#include "protocols/two_round_mis.h"

namespace {

void ablate_agm_rounds(ds::bench::Claims& claims) {
  std::cout << "=== A3a: AGM sketch rounds vs success ===\n";
  ds::core::Table table({"rounds", "bits/player", "P[spanning forest]"});
  ds::util::Rng rng(1);
  const ds::graph::Graph g = ds::graph::gnp(100, 0.08, rng);
  for (unsigned rounds : {1u, 2u, 4u, 7u, 10u, 0u /* default */}) {
    std::size_t ok = 0, bits = 0;
    constexpr std::size_t kTrials = 10;
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      const ds::model::PublicCoins coins(100 + rounds * 17 + trial);
      const auto run = ds::model::run_protocol(
          g, ds::protocols::AgmSpanningForest{rounds}, coins);
      bits = run.comm.max_bits;
      ok += ds::graph::is_spanning_forest(g, run.output);
    }
    table.add_row(
        {rounds == 0 ? "default(~log n+3)" : ds::core::fmt(std::uint64_t{rounds}),
         ds::core::fmt(static_cast<std::uint64_t>(bits)),
         ds::core::fmt(static_cast<double>(ok) / kTrials, 2)});
    if (rounds == 1) claims.expect(ok == 0, "A3a 1 round: a run succeeds");
    if (rounds == 0) claims.expect(ok == kTrials, "A3a default: a run fails");
  }
  table.print(std::cout);
  std::cout << "\nToo few independent samplers and Boruvka stalls; the\n"
               "log-n default restores w.h.p. success.\n\n";
}

void ablate_accounting(ds::bench::Claims& claims) {
  std::cout << "=== A3b: bit-exact vs byte-rounded accounting ===\n";
  ds::core::Table table(
      {"requested bits", "exact max bits", "byte-rounded bits", "overhead"});
  ds::util::Rng rng(2);
  const ds::graph::Graph g = ds::graph::gnp(200, 0.1, rng);
  for (std::size_t budget : {16ULL, 48ULL, 100ULL, 333ULL, 1000ULL}) {
    const ds::model::PublicCoins coins(200 + budget);
    const auto run = ds::model::run_protocol(
        g, ds::protocols::BudgetedMatching{budget}, coins);
    const std::size_t exact = run.comm.max_bits;
    const std::size_t bytes = (exact + 7) / 8 * 8;
    const double overhead =
        static_cast<double>(bytes) /
        static_cast<double>(std::max<std::size_t>(exact, 1));
    table.add_row({ds::core::fmt(static_cast<std::uint64_t>(budget)),
                   ds::core::fmt(static_cast<std::uint64_t>(exact)),
                   ds::core::fmt(static_cast<std::uint64_t>(bytes)),
                   ds::core::fmt(overhead, 3)});
    claims.expect(overhead < 1.5, "A3b budget " + std::to_string(budget) +
                                      ": byte-rounding overhead >= 1.5");
  }
  table.print(std::cout);
  std::cout << "\nByte rounding inflates budgets by < 1.5x at the scales\n"
               "that matter — it shifts E3's ladder, not its shape.\n\n";
}

void ablate_palette_list(ds::bench::Claims& claims) {
  // The hard case for list size is the clique: the lists must contain a
  // system of distinct representatives (all n colors used exactly once),
  // which random lists provide w.h.p. only once |L| ~ log n.
  std::cout << "=== A3c: palette sparsification list size (on K_64) ===\n";
  ds::core::Table table({"list size", "bits/player", "P[proper coloring]"});
  const ds::graph::Vertex n = 64;
  const ds::graph::Graph g = ds::graph::complete(n);
  for (std::uint32_t list : {1u, 4u, 8u, 16u, 24u, 32u}) {
    std::size_t ok = 0, bits = 0;
    constexpr std::size_t kTrials = 10;
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      const ds::protocols::PaletteSparsificationColoring protocol(n, list);
      const ds::model::PublicCoins coins(300 + list * 1000 + trial);
      const auto run = ds::model::run_protocol(g, protocol, coins);
      bits = std::max(bits, run.comm.max_bits);
      bool proper = true;
      for (ds::graph::Vertex v = 0; v < n && proper; ++v) {
        if (run.output[v] == ds::protocols::kUncolored) proper = false;
        for (ds::graph::Vertex w : g.neighbors(v)) {
          if (run.output[v] == run.output[w]) {
            proper = false;
            break;
          }
        }
      }
      ok += proper;
    }
    table.add_row({ds::core::fmt(std::uint64_t{list}),
                   ds::core::fmt(static_cast<std::uint64_t>(bits)),
                   ds::core::fmt(static_cast<double>(ok) / kTrials, 2)});
    const std::string row =
        "A3c list " + std::to_string(list) + ": P[proper coloring] is not ";
    if (list == 1) claims.expect(ok == 0, row + "0");
    if (list >= 8) claims.expect(ok == kTrials, row + "1");
  }
  table.print(std::cout);
  std::cout << "\nACK19's Theta(log n) list size is real and sharp:"
               "\nsingleton lists fail outright (birthday collisions),"
               "\nlists of ~1.3 log2(n) colors succeed w.h.p. even on the"
               "\nclique, where list-coloring = finding a system of"
               "\ndistinct representatives (the referee's augmenting"
               "\nrepair is exactly Kuhn's matching algorithm there).\n\n";
}

void ablate_mis_marking(ds::bench::Claims& claims) {
  std::cout << "=== A3d: two-round MIS marking probability ===\n";
  ds::core::Table table(
      {"p_mark (x 1/sqrt n)", "bits/player", "P[MIS]"});
  ds::util::Rng rng(4);
  const ds::graph::Vertex n = 400;
  const double base = 1.0 / std::sqrt(static_cast<double>(n));
  for (double factor : {0.5, 1.0, 3.0, 10.0}) {
    std::size_t ok = 0, bits = 0;
    constexpr std::size_t kTrials = 8;
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      const ds::graph::Graph g = ds::graph::gnp(n, 10.0 / n, rng);
      const ds::protocols::TwoRoundMis protocol(
          std::min(1.0, factor * base), /*round1_cap=*/100000);
      const ds::model::PublicCoins coins(400 + trial +
                                         static_cast<std::uint64_t>(
                                             factor * 100));
      const auto run = ds::model::run_protocol(g, protocol, coins);
      bits = std::max(bits, run.comm.max_bits);
      ok += ds::graph::is_maximal_independent_set(g, run.output);
    }
    table.add_row({ds::core::fmt(factor, 1),
                   ds::core::fmt(static_cast<std::uint64_t>(bits)),
                   ds::core::fmt(static_cast<double>(ok) / kTrials, 2)});
    claims.expect(ok == kTrials,
                  "A3d p_mark " + ds::core::fmt(factor, 1) + ": a run fails");
  }
  table.print(std::cout);
  std::cout << "\nCorrectness holds at every p (the cap is generous); the\n"
               "bits column shows the round-0 vs round-1 cost tradeoff\n"
               "around the ~1/sqrt(n) marking rate.\n\n";
}

}  // namespace

int main() {
  ds::bench::Claims claims;
  ablate_agm_rounds(claims);
  ablate_accounting(claims);
  ablate_palette_list(claims);
  ablate_mis_marking(claims);
  return claims.exit_code();
}
