// A1 (ablation/extension) — the rest of the introduction's problem zoo,
// executed: connectivity, k-edge-connectivity certificates, exact MSF
// weight, and the dynamic-stream correspondence.  All of these run in
// polylog(n) (times k or W) bits per player on the SAME model where
// Theorems 1-2 put maximal matching and MIS at Omega(sqrt n).
//
// Checked: every correct, preserved and exact column equals its trial
// count, and the stream's components are correct; in A2 one-sided
// success is 0 at 16 bits and 1 at 4096 bits.
#include <cmath>
#include <iostream>

#include "claims.h"
#include "core/report.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/densest.h"
#include "graph/mincut.h"
#include "model/runner.h"
#include "model/one_sided.h"
#include "protocols/needle.h"
#include "protocols/sampling_zoo.h"
#include "protocols/zoo.h"
#include "stream/dynamic_stream.h"

namespace {

void print_connectivity(ds::bench::Claims& claims) {
  std::cout << "=== A1a: one-round connectivity (component counting) ===\n";
  ds::core::Table table({"n", "bits/player", "correct"});
  for (ds::graph::Vertex n : {64u, 256u, 1024u}) {
    std::size_t bits = 0, correct = 0;
    constexpr std::size_t kTrials = 5;
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      // Counter-derived seed: each (n, trial) instance is independent of
      // every other data point instead of riding one shared Rng stream.
      ds::util::Rng rng(ds::util::derive_seed(n, trial));
      const ds::graph::Graph g = ds::graph::gnp(n, 3.0 / n, rng);
      const ds::model::PublicCoins coins(4000 + n + trial);
      const auto run =
          ds::model::run_protocol(g, ds::protocols::AgmConnectivity{}, coins);
      bits = run.comm.max_bits;
      correct += run.output == ds::graph::connected_components(g).count;
    }
    table.add_row({ds::core::fmt(std::uint64_t{n}),
                   ds::core::fmt(static_cast<std::uint64_t>(bits)),
                   ds::core::fmt(static_cast<std::uint64_t>(correct)) + "/" +
                       ds::core::fmt(static_cast<std::uint64_t>(kTrials))});
    claims.expect(correct == kTrials,
                  "A1a n=" + std::to_string(n) + ": a count is wrong");
  }
  table.print(std::cout);
  std::cout << '\n';
}

void print_k_connectivity(ds::bench::Claims& claims) {
  std::cout << "=== A1b: k-edge-connectivity certificates ===\n";
  ds::core::Table table(
      {"n", "k", "bits/player", "|cert| / (k*n)", "capped lambda preserved"});
  for (std::uint32_t k : {1u, 2u, 4u}) {
    const ds::graph::Vertex n = 28;
    std::size_t bits = 0, preserved = 0;
    double cert_ratio = 0;
    constexpr std::size_t kTrials = 5;
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      ds::util::Rng rng(
          ds::util::derive_seed(ds::util::derive_seed(17, k), trial));
      const ds::graph::Graph g = ds::graph::gnp(n, 0.35, rng);
      const ds::model::PublicCoins coins(5000 + k * 100 + trial);
      const auto run = ds::model::run_protocol(
          g, ds::protocols::KConnectivityCertificate{k}, coins);
      bits = run.comm.max_bits;
      cert_ratio += static_cast<double>(run.output.size()) /
                    static_cast<double>(k * n);
      const ds::graph::Graph cert =
          ds::graph::Graph::from_edges(n, run.output);
      preserved +=
          std::min<std::uint64_t>(ds::graph::global_min_cut(g), k) ==
          std::min<std::uint64_t>(ds::graph::global_min_cut(cert), k);
    }
    table.add_row({ds::core::fmt(std::uint64_t{n}),
                   ds::core::fmt(std::uint64_t{k}),
                   ds::core::fmt(static_cast<std::uint64_t>(bits)),
                   ds::core::fmt(cert_ratio / kTrials, 2),
                   ds::core::fmt(static_cast<std::uint64_t>(preserved)) +
                       "/" +
                       ds::core::fmt(static_cast<std::uint64_t>(kTrials))});
    claims.expect(preserved == kTrials,
                  "A1b k=" + std::to_string(k) + ": a cut is not preserved");
  }
  table.print(std::cout);
  std::cout << '\n';
}

void print_mst_weight(ds::bench::Claims& claims) {
  std::cout << "=== A1c: exact MSF weight from W connectivity sketches ===\n";
  ds::core::Table table({"n", "W", "bits/player", "exact matches"});
  for (std::uint32_t w : {2u, 4u, 8u}) {
    const ds::graph::Vertex n = 40;
    std::size_t bits = 0, exact = 0;
    constexpr std::size_t kTrials = 5;
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      ds::util::Rng rng(
          ds::util::derive_seed(ds::util::derive_seed(23, w), trial));
      const ds::graph::WeightedGraph g =
          ds::graph::random_weighted_gnp(n, 0.15, w, rng);
      const ds::model::PublicCoins coins(6000 + w * 100 + trial);
      const auto run =
          ds::model::run_protocol(g, ds::protocols::MstWeight{w}, coins);
      bits = run.comm.max_bits;
      exact += run.output == ds::graph::kruskal_mst(g).total_weight;
    }
    table.add_row(
        {ds::core::fmt(std::uint64_t{n}), ds::core::fmt(std::uint64_t{w}),
         ds::core::fmt(static_cast<std::uint64_t>(bits)),
         ds::core::fmt(static_cast<std::uint64_t>(exact)) + "/" +
             ds::core::fmt(static_cast<std::uint64_t>(kTrials))});
    claims.expect(exact == kTrials,
                  "A1c W=" + std::to_string(w) + ": a weight is not exact");
  }
  table.print(std::cout);
  std::cout << '\n';
}

void print_dynamic_stream(ds::bench::Claims& claims) {
  std::cout << "=== A1d: the linear-sketch <-> dynamic-stream "
               "correspondence ===\n";
  ds::core::Table table({"n", "updates", "spurious pairs", "state bits/n",
                         "components correct", "greedy matching survives"});
  for (ds::graph::Vertex n : {50u, 200u}) {
    ds::util::Rng rng(ds::util::derive_seed(29, n));
    const ds::graph::Graph target = ds::graph::gnp(n, 4.0 / n, rng);
    const auto updates =
        ds::stream::scrambled_updates(target, /*spurious_pairs=*/2 * n, rng);
    ds::stream::DynamicConnectivity connectivity(n, 7000 + n);
    ds::stream::InsertionGreedyMatching matching(n);
    for (const auto& u : updates) {
      connectivity.apply(u);
      matching.apply(u);
    }
    const bool correct = connectivity.query_components() ==
                         ds::graph::connected_components(target).count;
    table.add_row(
        {ds::core::fmt(std::uint64_t{n}),
         ds::core::fmt(static_cast<std::uint64_t>(updates.size())),
         ds::core::fmt(std::uint64_t{2 * n}),
         ds::core::fmt(static_cast<double>(connectivity.state_bits()) / n,
                       0),
         correct ? "yes" : "NO", matching.valid() ? "yes" : "no (broken)"});
    claims.expect(correct,
                  "A1d n=" + std::to_string(n) + ": components are wrong");
  }
  table.print(std::cout);
  std::cout
      << "\nReading: linear sketches absorb deletions (the reason the"
         "\nstreaming matching lower bounds the paper cites apply only to"
         "\nLINEAR sketches, and Theorems 1-2 were needed for general"
         "\nones); one-pass greedy matching breaks on the same stream.\n\n";
}

void print_sampling_zoo() {
  std::cout << "=== A1e: edge counting, densest subgraph, degeneracy ===\n";
  ds::core::Table table({"problem", "n", "bits/player", "estimate", "truth",
                         "ratio"});
  {
    ds::util::Rng rng(ds::util::derive_seed(61, 0));
    const ds::graph::Graph g = ds::graph::gnp(200, 0.2, rng);
    const ds::model::PublicCoins coins(9100);
    const auto run = ds::model::run_protocol(
        g, ds::protocols::EdgeCountEstimate{128}, coins);
    const double truth = static_cast<double>(g.num_edges());
    table.add_row({"edge count (KMV k=128)", "200",
                   ds::core::fmt(static_cast<std::uint64_t>(run.comm.max_bits)),
                   ds::core::fmt(run.output, 0), ds::core::fmt(truth, 0),
                   ds::core::fmt(run.output / truth, 2)});
  }
  {
    // Planted K12 in sparse noise.
    ds::util::Rng rng(ds::util::derive_seed(61, 1));
    std::vector<ds::graph::Edge> edges;
    for (ds::graph::Vertex u = 0; u < 12; ++u)
      for (ds::graph::Vertex v = u + 1; v < 12; ++v) edges.push_back({u, v});
    for (ds::graph::Vertex v = 12; v < 200; ++v) {
      edges.push_back({v, static_cast<ds::graph::Vertex>(rng.next_below(v))});
    }
    const ds::graph::Graph g = ds::graph::Graph::from_edges(200, edges);
    const double truth = ds::graph::densest_subgraph_peel(g).density;
    const ds::model::PublicCoins coins(9200);
    const auto run = ds::model::run_protocol(
        g, ds::protocols::SampledDensestSubgraph{0.5}, coins);
    table.add_row({"densest subgraph (p=0.5)", "200",
                   ds::core::fmt(static_cast<std::uint64_t>(run.comm.max_bits)),
                   ds::core::fmt(run.output.density, 2),
                   ds::core::fmt(truth, 2),
                   ds::core::fmt(run.output.density / truth, 2)});
  }
  {
    ds::util::Rng rng(ds::util::derive_seed(61, 2));
    const ds::graph::Graph g = ds::graph::gnp(200, 0.15, rng);
    const double truth = static_cast<double>(ds::graph::degeneracy(g));
    const ds::model::PublicCoins coins(9300);
    const auto run = ds::model::run_protocol(
        g, ds::protocols::SampledDegeneracy{0.5}, coins);
    table.add_row({"degeneracy (p=0.5)", "200",
                   ds::core::fmt(static_cast<std::uint64_t>(run.comm.max_bits)),
                   ds::core::fmt(run.output, 1), ds::core::fmt(truth, 1),
                   ds::core::fmt(run.output / truth, 2)});
  }
  table.print(std::cout);
  std::cout << "\nAll three use the shared-hash sampling trick: both\n"
               "endpoints of an edge make the same sampling decision from\n"
               "the public coins, so reports merge into one consistent\n"
               "subsample — edge sharing at work again.\n\n";
}

void print_one_sided(ds::bench::Claims& claims) {
  std::cout << "=== A2: the one-sided model (related work, Section 1.3) "
               "===\n";
  // Needle discovery: the unique degree-1 right vertex's edge.
  ds::core::Table table({"left=right", "two-sided bits", "1-sided budget",
                         "1-sided success"});
  for (ds::graph::Vertex side : {20u, 50u, 100u}) {
    std::size_t two_bits = 0;
    for (std::size_t budget : {16ULL, 64ULL, 256ULL, 4096ULL}) {
      std::size_t successes = 0;
      constexpr std::size_t kTrials = 10;
      for (std::size_t trial = 0; trial < kTrials; ++trial) {
        // Same instance sequence at every budget: the budget column is
        // the only thing that varies across a row's data points.
        ds::util::Rng rng(
            ds::util::derive_seed(ds::util::derive_seed(41, side), trial));
        const auto inst = ds::graph::needle_bipartite(
            side, side, std::min(0.5, 8.0 / side), rng);
        const ds::model::PublicCoins coins(8000 + side + trial);
        const ds::model::BipartiteInstance bip{inst.graph, inst.left};
        const ds::protocols::NeedleOneSided one(inst.left, budget);
        const auto run = ds::model::run_one_sided(bip, one, coins);
        successes +=
            run.output.normalized() == inst.needle.normalized();
        const ds::protocols::NeedleTwoSided two(inst.left);
        const auto two_run =
            ds::model::run_protocol(inst.graph, two, coins);
        two_bits = std::max(two_bits, two_run.comm.max_bits);
      }
      table.add_row(
          {ds::core::fmt(std::uint64_t{side}),
           ds::core::fmt(static_cast<std::uint64_t>(two_bits)),
           ds::core::fmt(static_cast<std::uint64_t>(budget)),
           ds::core::fmt(static_cast<double>(successes) / kTrials, 2)});
      const std::string row =
          "A2 side=" + std::to_string(side) + " budget=" +
          std::to_string(budget) + ": one-sided success is not ";
      if (budget == 16) claims.expect(successes == 0, row + "0");
      if (budget == 4096) claims.expect(successes == kTrials, row + "1");
    }
  }
  table.print(std::cout);
  std::cout
      << "\nReading: with players on both sides the degree-1 vertex"
         "\nannounces itself (log n bits, success 1 always); with players"
         "\non one side only, reliable discovery needs budgets near the"
         "\nfull degree — the related-work models' hardness, flipped off"
         "\nby the edge-sharing this paper's model has.\n\n";
}

}  // namespace

int main() {
  ds::bench::Claims claims;
  print_connectivity(claims);
  print_k_connectivity(claims);
  print_mst_weight(claims);
  print_dynamic_stream(claims);
  print_sampling_zoo();
  print_one_sided(claims);
  return claims.exit_code();
}
