// E8 — the Section 1.1 remark: with ONE extra round, both maximal
// matching and MIS drop to O(sqrt n)-size adaptive sketches
// ([Lattanzi et al. '11] filtering, [Ghaffari et al. '18] sparsification).
//
// We run the two-round protocols on G(n, p) and on D_MM itself and report
// realized per-player bits against sqrt(n)*log(n), plus success rates.
//
// Checked: in E8a/E8b every run succeeds and, within each graph family,
// the ratio to sqrt(n)*log2(n) falls as n grows; on E8a's rows with a
// 2-edge round-0 sample every trial also uses round 1; in E8c two rounds
// succeed at least as often as one at every total budget; in E8d Luby
// needs fewer bits per player than the one-round protocol on H.
#include <cmath>
#include <iostream>
#include <limits>

#include "claims.h"
#include "core/report.h"
#include "graph/generators.h"
#include "graph/independent_set.h"
#include "graph/matching.h"
#include "lowerbound/dmm.h"
#include "lowerbound/mis_reduction.h"
#include "model/runner.h"
#include "protocols/budgeted_two_round.h"
#include "protocols/two_round_matching.h"
#include "protocols/luby_bcc.h"
#include "protocols/sampled_mis.h"
#include "protocols/two_round_mis.h"
#include "rs/rs_graph.h"

namespace {

constexpr double kNoPrevious = std::numeric_limits<double>::infinity();

/// An E8a/E8b row's predictions: every trial succeeds, and the ratio to
/// sqrt(n)*log2(n) falls below the graph family's previous row.
void expect_row(ds::bench::Claims& claims, const std::string& row, bool all_ok,
                double ratio, double& previous_ratio) {
  claims.expect(all_ok, row + ": a run fails");
  claims.expect(ratio < previous_ratio, row + ": ratio does not fall");
  previous_ratio = ratio;
}

void print_matching(ds::bench::Claims& claims) {
  std::cout << "=== E8a: two-round adaptive maximal matching ===\n";
  ds::core::Table table({"graph", "n", "bits/player", "sqrt(n)*log2(n)",
                         "ratio", "P[maximal]", "P[round 1 used]"});
  // Round 0 samples `round0_samples` edges a vertex (0: sqrt(n) + 4);
  // round 1 reports up to 8 (sqrt(n) + 4) residual edges.  A vertex with
  // no residual edge sends a 1-bit empty list in round 1, so a trial used
  // round 1 when some vertex's round-1 message is longer.  Returns whether
  // every trial used round 1 and output a maximal matching.
  auto run_case = [&table, &claims](const std::string& label,
                                    const ds::graph::Graph& g,
                                    std::uint64_t seed,
                                    std::size_t round0_samples,
                                    double& previous_ratio) {
    const ds::graph::Vertex n = g.num_vertices();
    const std::size_t c =
        static_cast<std::size_t>(std::sqrt(static_cast<double>(n))) + 4;
    const ds::protocols::TwoRoundMatching protocol(
        round0_samples > 0 ? round0_samples : c, 8 * c);
    std::size_t bits = 0, ok = 0, used_round1 = 0;
    constexpr std::size_t kTrials = 5;
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      const ds::model::PublicCoins coins(ds::util::mix64(seed, trial));
      const auto run = ds::model::run_protocol(g, protocol, coins);
      bits = std::max(bits, run.comm.max_bits);
      used_round1 += run.by_round[1].max_bits > 1;
      ok += ds::graph::is_maximal_matching(g, run.output);
    }
    const double yard = std::sqrt(static_cast<double>(n)) *
                        std::log2(static_cast<double>(n));
    const double ratio = static_cast<double>(bits) / yard;
    table.add_row({label, ds::core::fmt(std::uint64_t{n}),
                   ds::core::fmt(static_cast<std::uint64_t>(bits)),
                   ds::core::fmt(yard, 0), ds::core::fmt(ratio, 2),
                   ds::core::fmt(static_cast<double>(ok) / kTrials, 2),
                   ds::core::fmt(static_cast<double>(used_round1) / kTrials,
                                 2)});
    expect_row(claims, "E8a " + label, ok == kTrials, ratio, previous_ratio);
    return ok == kTrials && used_round1 == kTrials;
  };

  ds::util::Rng rng(11);
  double gnp_ratio = kNoPrevious;
  for (ds::graph::Vertex n : {100u, 400u, 1600u}) {
    run_case("gnp(" + std::to_string(n) + ")",
             ds::graph::gnp(n, 8.0 / n, rng), 100 + n, 0, gnp_ratio);
  }
  double dmm_ratio = kNoPrevious;
  for (std::uint64_t m : {8ULL, 16ULL}) {
    const ds::rs::RsGraph base = ds::rs::rs_graph(m);
    const auto inst = ds::lowerbound::sample_dmm(base, base.t(), rng);
    run_case("D_MM(m=" + std::to_string(m) + ")", inst.g, 200 + m, 0,
             dmm_ratio);
  }
  // On the rows above nearly every vertex reports all its edges in round
  // 0, so round 1 goes unused.  With a 2-edge round-0 sample the round-0
  // matching cannot be maximal on its own, and round 1 must carry the
  // residual.
  double small_sample_ratio = kNoPrevious;
  for (ds::graph::Vertex n : {100u, 400u, 1600u}) {
    const std::string label = "gnp(" + std::to_string(n) + "), c0=2";
    const bool needs_round1 =
        run_case(label, ds::graph::gnp(n, 8.0 / n, rng), 300 + n, 2,
                 small_sample_ratio);
    claims.expect(needs_round1,
                  "E8a " + label +
                      ": a trial leaves round 1 unused or its matching is "
                      "not maximal");
  }
  table.print(std::cout);
  std::cout << '\n';
}

void print_mis(ds::bench::Claims& claims) {
  std::cout << "=== E8b: two-round adaptive MIS ===\n";
  ds::core::Table table(
      {"graph", "n", "bits/player", "sqrt(n)*log2(n)", "ratio", "P[MIS]"});
  ds::util::Rng rng(13);
  double previous_ratio = kNoPrevious;
  for (ds::graph::Vertex n : {100u, 400u, 1600u}) {
    const ds::graph::Graph g = ds::graph::gnp(n, 8.0 / n, rng);
    const double p_mark =
        std::min(1.0, 3.0 / std::sqrt(static_cast<double>(n)));
    const ds::protocols::TwoRoundMis protocol(
        p_mark, static_cast<std::size_t>(
                    24 * std::sqrt(static_cast<double>(n))));
    std::size_t bits = 0, ok = 0;
    constexpr std::size_t kTrials = 5;
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      const ds::model::PublicCoins coins(ds::util::mix64(n, trial));
      const auto run = ds::model::run_protocol(g, protocol, coins);
      bits = std::max(bits, run.comm.max_bits);
      ok += ds::graph::is_maximal_independent_set(g, run.output);
    }
    const double yard = std::sqrt(static_cast<double>(n)) *
                        std::log2(static_cast<double>(n));
    const double ratio = static_cast<double>(bits) / yard;
    const std::string label = "gnp(" + std::to_string(n) + ")";
    table.add_row({label, ds::core::fmt(std::uint64_t{n}),
                   ds::core::fmt(static_cast<std::uint64_t>(bits)),
                   ds::core::fmt(yard, 0), ds::core::fmt(ratio, 2),
                   ds::core::fmt(static_cast<double>(ok) / kTrials, 2)});
    expect_row(claims, "E8b " + label, ok == kTrials, ratio, previous_ratio);
  }
  table.print(std::cout);
  std::cout
      << "\nPaper prediction: one extra round collapses both problems to"
         "\n~sqrt(n) bits/player (ratio columns ~constant) — the Theorem"
         "\n1/2 wall is specific to ONE round.\n\n";
}

// E8c: adaptivity under a shared TOTAL budget — the open middle ground
// between Theorem 1's one-round wall and the unbudgeted two-round upper
// bound.  Same total bits; the two-round protocol routes round 1 to the
// residual and crosses to success at a lower total budget.
void print_budgeted_adaptivity(ds::bench::Claims& claims) {
  std::cout << "=== E8c: one round vs two rounds at equal total budget "
               "(D_MM, m=16) ===\n";
  const ds::rs::RsGraph base = ds::rs::rs_graph(16);
  ds::core::Table table({"total budget bits", "P[maximal] 1-round",
                         "P[maximal] 2-round"});
  for (std::size_t total : {12ULL, 16ULL, 24ULL, 32ULL, 48ULL, 96ULL}) {
    std::size_t one_ok = 0, two_ok = 0;
    constexpr std::size_t kTrials = 10;
    ds::util::Rng rng(83);
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      const auto inst = ds::lowerbound::sample_dmm(base, base.t(), rng);
      const ds::model::PublicCoins coins(ds::util::mix64(total, trial));
      const ds::protocols::BudgetedTwoRoundMatching one(total, 0);
      const ds::protocols::BudgetedTwoRoundMatching two(total / 2,
                                                        total / 2);
      one_ok += ds::graph::is_maximal_matching(
          inst.g, ds::model::run_protocol(inst.g, one, coins).output);
      two_ok += ds::graph::is_maximal_matching(
          inst.g, ds::model::run_protocol(inst.g, two, coins).output);
    }
    table.add_row({ds::core::fmt(static_cast<std::uint64_t>(total)),
                   ds::core::fmt(static_cast<double>(one_ok) / kTrials, 2),
                   ds::core::fmt(static_cast<double>(two_ok) / kTrials, 2)});
    claims.expect(two_ok >= one_ok, "E8c total " + std::to_string(total) +
                                        ": 2-round success < 1-round");
  }
  table.print(std::cout);
  std::cout << "\nAdaptivity buys a constant-factor budget saving here;"
               "\nTheorem 1 is about the FIRST column's wall.\n\n";
}

// E8d: the full rounds-vs-bits tradeoff for MIS, on an easy graph (sparse
// gnp) and on the hard one (the Section 4 reduction graph H over D_MM).
void print_rounds_vs_bits(ds::bench::Claims& claims) {
  std::cout << "=== E8d: rounds vs bits for MIS ===\n";
  ds::core::Table table({"graph", "protocol", "rounds", "bits/player",
                         "P[MIS] (5 trials)"});

  std::size_t one_round_bits = 0, luby_bits = 0;  // of the last graph run
  const auto run_rows = [&](const std::string& label,
                            const ds::graph::Graph& g, std::uint64_t seed) {
    const ds::graph::Vertex n = g.num_vertices();
    {  // one round: smallest doubling budget reaching 5/5.
      std::size_t bits = 0;
      double rate = 0;
      for (std::size_t budget = 32; budget <= (1u << 20); budget *= 2) {
        std::size_t ok = 0, seen_bits = 0;
        for (std::uint64_t trial = 0; trial < 5; ++trial) {
          const ds::model::PublicCoins coins(
              ds::util::mix64(seed + budget, trial));
          const ds::protocols::BudgetedMis protocol(budget);
          const auto run = ds::model::run_protocol(g, protocol, coins);
          ok += ds::graph::is_maximal_independent_set(g, run.output);
          seen_bits = std::max(seen_bits, run.comm.max_bits);
        }
        bits = seen_bits;
        rate = static_cast<double>(ok) / 5.0;
        if (ok == 5) break;
      }
      table.add_row({label, "one-round edge reports", "1",
                     ds::core::fmt(static_cast<std::uint64_t>(bits)),
                     ds::core::fmt(rate, 2)});
      one_round_bits = bits;
    }
    {  // two rounds.
      const double p_mark = 3.0 / std::sqrt(static_cast<double>(n));
      const ds::protocols::TwoRoundMis protocol(std::min(1.0, p_mark),
                                                2 * n);
      std::size_t bits = 0, ok = 0;
      for (std::uint64_t trial = 0; trial < 5; ++trial) {
        const ds::model::PublicCoins coins(ds::util::mix64(seed + 1, trial));
        const auto run = ds::model::run_protocol(g, protocol, coins);
        bits = std::max(bits, run.comm.max_bits);
        ok += ds::graph::is_maximal_independent_set(g, run.output);
      }
      table.add_row({label, "two-round marked", "2",
                     ds::core::fmt(static_cast<std::uint64_t>(bits)),
                     ds::core::fmt(static_cast<double>(ok) / 5.0, 2)});
    }
    {  // Luby over the broadcast congested clique.
      const auto protocol = ds::protocols::make_luby_bcc(n);
      std::size_t bits = 0, ok = 0;
      for (std::uint64_t trial = 0; trial < 5; ++trial) {
        const ds::model::PublicCoins coins(ds::util::mix64(seed + 2, trial));
        const auto run = ds::model::run_protocol(g, protocol, coins);
        bits = std::max(bits, run.comm.max_bits);
        ok += ds::graph::is_maximal_independent_set(g, run.output);
      }
      table.add_row({label, "Luby (BCC)",
                     ds::core::fmt(std::uint64_t{protocol.num_rounds()}),
                     ds::core::fmt(static_cast<std::uint64_t>(bits)),
                     ds::core::fmt(static_cast<double>(ok) / 5.0, 2)});
      luby_bits = bits;
    }
  };

  ds::util::Rng rng(97);
  run_rows("gnp(400)", ds::graph::gnp(400, 8.0 / 400, rng), 11000);
  {
    const ds::rs::RsGraph base = ds::rs::rs_graph(16);
    const auto inst = ds::lowerbound::sample_dmm(base, base.t(), rng);
    const ds::graph::Graph h = ds::lowerbound::build_reduction_graph(inst);
    run_rows("H(D_MM m=16)", h, 12000);
    claims.expect(luby_bits < one_round_bits,
                  "E8d H(D_MM m=16): Luby needs no fewer bits than one round");
  }
  table.print(std::cout);
  std::cout
      << "\nReading: on the easy sparse graph even one round is cheap —"
         "\nthe wall is DISTRIBUTION-specific.  On the reduction graph H"
         "\n(where Theorem 2 lives) the one-round budget balloons with"
         "\nthe dense public biclique, while Luby stays at O(log n) total"
         "\nbits: more rounds of interaction are exponentially cheaper.\n\n";
}

}  // namespace

int main() {
  ds::bench::Claims claims;
  print_matching(claims);
  print_mis(claims);
  print_budgeted_adaptivity(claims);
  print_rounds_vs_bits(claims);
  return claims.exit_code();
}
