// E5 — Theorem 2 via the Section 4 reduction: an MIS of H = (two copies
// of G) + (public biclique) decodes, through Lemma 4.1, into exactly the
// surviving special matching of G ~ D_MM, at 2x the per-player cost.
//
// We measure: (a) the reduction's exactness over many samples and MIS
// algorithms, (b) the biclique guarantee (one side's public copies always
// absent), and (c) the cost factor when the MIS is produced by an actual
// sketching protocol (trivial MIS at Theta(2n) bits vs Theta(n) for the
// matching side — the factor-2 of the proof).
//
// Checked: side-empty = equiv = exact = trials on every row, and the
// end-to-end trivial-MIS decode is exact.
#include <cmath>
#include <iostream>

#include "claims.h"
#include "core/report.h"
#include "graph/independent_set.h"
#include "lowerbound/mis_reduction.h"
#include "model/runner.h"
#include "protocols/trivial.h"
#include "rs/rs_graph.h"

namespace {

using namespace ds::lowerbound;

void print_experiment(ds::bench::Claims& claims) {
  std::cout << "=== E5: the maximal-matching <- MIS reduction "
               "(Section 4 / Lemma 4.1) ===\n";
  ds::core::Table table({"m", "n(G)", "n(H)", "trials", "side empty",
                         "L4.1 equiv", "decoded exact", "mis algo"});

  for (std::uint64_t m : {5ULL, 8ULL, 12ULL}) {
    const ds::rs::RsGraph base = ds::rs::rs_graph(m);
    ds::util::Rng rng(ds::util::derive_seed(31, m));
    std::size_t trials = 0, side_empty = 0, equiv = 0, exact = 0;
    std::uint32_t n_g = 0;
    constexpr std::size_t kTrials = 8;
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      const DmmInstance inst = sample_dmm(base, base.t(), rng);
      n_g = inst.params.n;
      const ds::graph::Graph h = build_reduction_graph(inst);
      const auto mis = ds::graph::greedy_mis_random(h, rng);
      const Lemma41Audit audit = audit_lemma41(inst, mis);
      ++trials;
      side_empty += audit.some_side_empty;
      equiv += audit.left_equivalence && audit.right_equivalence;
      exact += audit.decoded_exactly;
    }
    table.add_row({ds::core::fmt(m), ds::core::fmt(std::uint64_t{n_g}),
                   ds::core::fmt(std::uint64_t{2 * n_g}),
                   ds::core::fmt(static_cast<std::uint64_t>(trials)),
                   ds::core::fmt(static_cast<std::uint64_t>(side_empty)),
                   ds::core::fmt(static_cast<std::uint64_t>(equiv)),
                   ds::core::fmt(static_cast<std::uint64_t>(exact)),
                   "greedy-random"});
    claims.expect(side_empty == trials && equiv == trials && exact == trials,
                  "E5 m=" + std::to_string(m) +
                      ": side empty, equiv and exact are not all = trials");
  }
  table.print(std::cout);

  // Cost factor: run the trivial MIS sketching protocol on H and the
  // trivial matching protocol on G; the reduction's claim is cost(H) =
  // 2 * cost(G) per original player (each simulates both copies).
  {
    const ds::rs::RsGraph base = ds::rs::rs_graph(6);
    ds::util::Rng rng(77);
    const DmmInstance inst = sample_dmm(base, base.t(), rng);
    const ds::graph::Graph h = build_reduction_graph(inst);
    const ds::model::PublicCoins coins(5);
    const auto run_g = ds::model::run_protocol(
        inst.g, ds::protocols::TrivialMaximalMatching{}, coins);
    const auto run_h =
        ds::model::run_protocol(h, ds::protocols::TrivialMis{}, coins);
    // An original player simulates two H-vertices: 2 * (2n) bits... the
    // trivial protocol costs |V(H)| = 2n bits per H-vertex, 4n per
    // original player vs n on G: the reduction overhead for THIS protocol
    // is 4x total (2 copies x 2x larger vertex set), and exactly 2x in
    // the per-simulated-player measure the paper uses.
    std::cout << "\nCost accounting (trivial protocols): matching on G: "
              << run_g.comm.max_bits << " bits/player; MIS on H: "
              << run_h.comm.max_bits << " bits/player; per original player "
              << 2 * run_h.comm.max_bits << " bits ("
              << ds::core::fmt(static_cast<double>(2 * run_h.comm.max_bits) /
                                   static_cast<double>(run_g.comm.max_bits),
                               1)
              << "x the direct matching cost).\n";

    // End-to-end: decode the MIS protocol's output through the reduction.
    const Lemma41Audit audit = audit_lemma41(inst, run_h.output);
    std::cout << "End-to-end trivial-MIS -> reduction decode exact: "
              << ds::core::fmt_bool(audit.decoded_exactly) << "\n\n";
    claims.expect(audit.decoded_exactly,
                  "E5 end-to-end trivial-MIS decode is not exact");
  }
  std::cout << "Paper prediction: every row has side-empty = equiv = exact"
               "\n= trials (the reduction never fails on a correct MIS), so"
               "\nany b-bit MIS protocol yields a 2b-bit matching protocol"
               "\nand Theorem 1's bound transfers to MIS.\n\n";
}

}  // namespace

int main() {
  ds::bench::Claims claims;
  print_experiment(claims);
  return claims.exit_code();
}
