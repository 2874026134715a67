// E4 — exact information accounting for Lemmas 3.3-3.5 on enumerable
// mini-instances of D_MM.
//
// For each (base RS graph, k, encoder) we enumerate the full input
// distribution, compute the exact joint law of (Sigma, J, M, Pi(P),
// Pi(U_i)), and print both sides of each lemma.  The Sigma-averaged run
// (all 120 permutations of the n = 5 instance) verifies Lemma 3.5 under
// its actual hypothesis; single-sigma runs cover 3.3 / 3.4 at slightly
// larger (r, t, k).
//
// Checked: every lemma cell reads yes (n/a, below the success cutoff of
// Lemma 3.3, only for the silent encoder); P[optimal] <= the Fano cap on
// every row; the best one-bit degree-table protocol on C6 scores exactly
// 7/8.
#include <cmath>
#include <iostream>

#include "claims.h"
#include "core/report.h"
#include "info/entropy.h"
#include "lowerbound/accounting.h"
#include "lowerbound/optimal_referee.h"
#include "lowerbound/protocol_search.h"
#include "rs/rs_graph.h"

namespace {

using namespace ds::lowerbound;

void add_row(ds::core::Table& table, ds::bench::Claims& claims,
             const std::string& instance, const std::string& encoder,
             const AccountingResult& r) {
  double sum_info = 0, sum_h = 0;
  for (double v : r.info_mi_piui) sum_info += v;
  for (double v : r.h_piui) sum_h += v;
  table.add_row(
      {instance, encoder, ds::core::fmt(r.success_prob, 3),
       ds::core::fmt(r.kr / 6.0, 3), ds::core::fmt(r.info_m_pi, 3),
       ds::core::fmt(r.h_pi_public, 3), ds::core::fmt(sum_info, 3),
       ds::core::fmt(sum_h, 3),
       r.lemma33_applicable ? ds::core::fmt_bool(r.lemma33_holds) : "n/a",
       ds::core::fmt_bool(r.lemma34_holds),
       ds::core::fmt_bool(r.lemma35_holds),
       ds::core::fmt(static_cast<std::uint64_t>(r.max_message_bits))});
  // n/a (success below Lemma 3.3's 0.98) only for the silent encoder.
  claims.expect(r.lemma33_applicable == (encoder != "silent") &&
                    (!r.lemma33_applicable || r.lemma33_holds) &&
                    r.lemma34_holds && r.lemma35_holds,
                "E4 " + instance + " " + encoder + ": a lemma cell is not yes");
}

void add_map_row(ds::core::Table& table, ds::bench::Claims& claims,
                 const std::string& instance, const RefinedEncoder& encoder,
                 const OptimalRefereeResult& r) {
  table.add_row(
      {instance, encoder.name(), ds::core::fmt(r.greedy_success, 3),
       ds::core::fmt(r.optimal_success, 3),
       ds::core::fmt(r.fano_success_bound, 3), ds::core::fmt(r.info_m_pi, 3),
       ds::core::fmt(static_cast<std::uint64_t>(r.max_message_bits))});
  claims.expect(
      r.optimal_success <= r.fano_success_bound + ds::info::kTolerance,
      "E4 MAP " + instance + " " + encoder.name() + ": P[optimal] > Fano cap");
}

void print_experiment(ds::bench::Claims& claims) {
  std::cout << "=== E4: exact information accounting (Lemmas 3.3-3.5) ===\n";
  ds::core::Table table({"instance", "encoder", "P[success]", "kr/6",
                         "I(M;Pi|S,J)", "H(Pi_P)", "sum I(Mi;PiUi)",
                         "sum H(PiUi)", "L3.3", "L3.4", "L3.5", "b"});

  const FullReportEncoder full;
  const CappedReportEncoder cap1(1);
  const SilentEncoder silent;

  {
    // Sigma fully enumerated: book(1,2), k=2, n=5 — 120 permutations.
    const ds::rs::RsGraph base = ds::rs::book_rs(1, 2);
    const auto sigmas = all_permutations(5);
    add_row(table, claims, "book(1,2) k=2 all-sigma", "full",
            enumerate_accounting(base, 2, full, sigmas));
    add_row(table, claims, "book(1,2) k=2 all-sigma", "cap-1",
            enumerate_accounting(base, 2, cap1, sigmas));
    add_row(table, claims, "book(1,2) k=2 all-sigma", "silent",
            enumerate_accounting(base, 2, silent, sigmas));
  }
  {
    // Larger masks, single sigma (valid for 3.3 / 3.4; 3.5 reported with
    // sampled sigmas).
    const ds::rs::RsGraph base = ds::rs::book_rs(1, 3);  // ktr = 9
    ds::util::Rng rng(7);
    const auto sigmas = sampled_permutations(
        dmm_parameters(base, 3).n, 24, rng);
    add_row(table, claims, "book(1,3) k=3 24-sigma", "full",
            enumerate_accounting(base, 3, full, sigmas));
    add_row(table, claims, "book(1,3) k=3 24-sigma", "cap-1",
            enumerate_accounting(base, 3, cap1, sigmas));
  }
  {
    const ds::rs::RsGraph base = ds::rs::book_rs(2, 2);  // ktr = 8, r = 2
    ds::util::Rng rng(9);
    const auto sigmas = sampled_permutations(
        dmm_parameters(base, 2).n, 24, rng);
    add_row(table, claims, "book(2,2) k=2 24-sigma", "full",
            enumerate_accounting(base, 2, full, sigmas));
    add_row(table, claims, "book(2,2) k=2 24-sigma", "cap-1",
            enumerate_accounting(base, 2, cap1, sigmas));
  }
  table.print(std::cout);

  // Converse side: no referee — not just the greedy one — can beat the
  // information cap.  MAP decoding attains the optimum; Fano bounds it by
  // (I + 1)/kr.
  std::cout << "\n--- Optimal (MAP) referee vs the information cap ---\n";
  ds::core::Table map_table({"instance", "encoder", "P[greedy]", "P[optimal]",
                             "Fano cap (I+1)/kr", "I(M;Pi|S,J)", "b"});
  {
    const ds::rs::RsGraph base = ds::rs::book_rs(1, 2);
    const ParityEncoder parity;
    for (const RefinedEncoder* enc :
         std::initializer_list<const RefinedEncoder*>{&full, &cap1, &parity,
                                                      &silent}) {
      add_map_row(map_table, claims, "book(1,2) k=2", *enc,
                  optimal_referee_success(base, 2, *enc));
    }
  }
  {
    const ds::rs::RsGraph base = ds::rs::book_rs(2, 2);
    const ParityEncoder parity;
    for (const RefinedEncoder* enc :
         std::initializer_list<const RefinedEncoder*>{&full, &cap1, &parity,
                                                      &silent}) {
      add_map_row(map_table, claims, "book(2,2) k=2", *enc,
                  optimal_referee_success(base, 2, *enc));
    }
  }
  map_table.print(std::cout);

  // Exhaustive protocol search: the exact optimum of a complete class of
  // tiny protocols (b-bit degree tables), certified by enumerating every
  // member and MAP-scoring it.
  std::cout << "\n--- Exhaustive search over ALL b-bit degree-table "
               "protocols ---\n";
  ds::core::Table search_table({"instance", "bits", "protocols", "best P",
                                "Fano cap at best", "guessing"});
  {
    const ds::rs::RsGraph c6 = ds::rs::cycle_rs(3);
    for (unsigned bits : {1u, 2u}) {
      const ProtocolSearchResult r = search_degree_protocols(
          c6, 1, bits, /*degree_cap=*/bits == 1 ? 3 : 2);
      search_table.add_row(
          {"C6 (r=2,t=3) k=1", ds::core::fmt(std::uint64_t{bits}),
           ds::core::fmt(static_cast<std::uint64_t>(r.protocols_searched)),
           ds::core::fmt(r.best_success, 4),
           ds::core::fmt(r.fano_cap_at_best, 3),
           ds::core::fmt(r.silent_baseline, 3)});
      if (bits == 1) {
        claims.expect(std::abs(r.best_success - 0.875) <= ds::info::kTolerance,
                      "E4 search C6 1 bit: best P is not 7/8");
      }
    }
  }
  {
    const ds::rs::RsGraph base = ds::rs::book_rs(1, 2);
    const ProtocolSearchResult r = search_degree_protocols(base, 2, 1, 3);
    search_table.add_row(
        {"book(1,2) k=2", "1",
         ds::core::fmt(static_cast<std::uint64_t>(r.protocols_searched)),
         ds::core::fmt(r.best_success, 4),
         ds::core::fmt(r.fano_cap_at_best, 3),
         ds::core::fmt(r.silent_baseline, 3)});
  }
  search_table.print(std::cout);
  std::cout
      << "\nOn C6 every vertex holds two matching slots, so degrees leave"
         "\nthe alternating survival patterns indistinguishable: the best"
         "\nof all 256 one-bit protocols is EXACTLY 7/8 — a certified gap"
         "\nfor a complete protocol class, the miniature of Theorem 1's"
         "\n'for every protocol' quantifier.\n";

  std::cout
      << "\nPaper predictions, all checked exactly:\n"
         "  Lemma 3.3: successful protocols (P >= 0.98) have "
         "I(M;Pi|Sigma,J) >= kr/6.\n"
         "  Lemma 3.4: I(M;Pi|Sigma,J) <= H(Pi_P) + sum_i "
         "I(M_i;Pi_Ui|Sigma,J).\n"
         "  Lemma 3.5: I(M_i;Pi_Ui|Sigma,J) <= H(Pi_Ui)/t (needs Sigma "
         "averaged).\n"
         "  Silent protocols reveal 0 bits and fail; full reports reveal "
         "kr bits and succeed.\n\n";
}

}  // namespace

int main() {
  ds::bench::Claims claims;
  print_experiment(claims);
  return claims.exit_code();
}
