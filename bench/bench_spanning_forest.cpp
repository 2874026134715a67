// E6 — the upper-bound contrast (Section 1): spanning forest has
// O(log^3 n)-bit sketches [AGM'12], including on the two-cluster-plus-
// bridge instance from the introduction, where the footnote-1 protocol
// finds the bridge with O(log n) bits.
//
// Checked: in E6a every run succeeds and neither bits/(log2 n)^3 nor
// bits/n ever rises; in E6b P[found] >= 0.9 at every n.
#include <cmath>
#include <iostream>
#include <limits>

#include "claims.h"
#include "core/report.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "model/runner.h"
#include "protocols/bridge_finding.h"
#include "protocols/spanning_forest.h"

namespace {

void print_agm_scaling(ds::bench::Claims& claims) {
  std::cout << "=== E6a: AGM spanning-forest sketches — bits/player vs n "
               "===\n";
  ds::core::Table table({"n", "bits/player", "bits/(log2 n)^3", "bits/n",
                         "success"});
  double previous_cubed = std::numeric_limits<double>::infinity();
  double previous_per_n = std::numeric_limits<double>::infinity();
  for (ds::graph::Vertex n : {64u, 128u, 256u, 512u, 1024u}) {
    ds::util::Rng rng(n);
    std::size_t bits = 0, successes = 0;
    constexpr std::size_t kTrials = 5;
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      const ds::graph::Graph g =
          ds::graph::gnp(n, 8.0 / static_cast<double>(n), rng);
      const ds::model::PublicCoins coins(1000 + n + trial);
      const auto run = ds::model::run_protocol(
          g, ds::protocols::AgmSpanningForest{}, coins);
      bits = run.comm.max_bits;
      successes += ds::graph::is_spanning_forest(g, run.output);
    }
    const double log_n = std::log2(static_cast<double>(n));
    const double cubed = static_cast<double>(bits) / (log_n * log_n * log_n);
    const double per_n = static_cast<double>(bits) / n;
    table.add_row(
        {ds::core::fmt(std::uint64_t{n}),
         ds::core::fmt(static_cast<std::uint64_t>(bits)),
         ds::core::fmt(cubed, 1), ds::core::fmt(per_n, 1),
         ds::core::fmt(static_cast<std::uint64_t>(successes)) + "/" +
             ds::core::fmt(static_cast<std::uint64_t>(kTrials))});
    const std::string row = "E6a n=" + std::to_string(n);
    claims.expect(successes == kTrials, row + ": a run fails");
    claims.expect(cubed <= previous_cubed, row + ": bits/(log2 n)^3 rises");
    claims.expect(per_n <= previous_per_n, row + ": bits/n rises");
    previous_cubed = cubed;
    previous_per_n = per_n;
  }
  table.print(std::cout);
  std::cout << "\nPaper prediction: bits/(log n)^3 ~ constant (the AGM "
               "O(log^3 n) bound),\nwhile bits/n vanishes — the contrast "
               "with E3's sqrt(n) wall for matching.\n\n";
}

void print_bridge(ds::bench::Claims& claims) {
  std::cout << "=== E6b: the footnote-1 bridge instance ===\n";
  ds::core::Table table({"n", "samples/vertex", "bits/player", "P[found]"});
  for (ds::graph::Vertex n : {40u, 100u, 400u, 1000u}) {
    ds::util::Rng rng(n);
    std::size_t found = 0, bits = 0;
    constexpr std::size_t kTrials = 20;
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      // Dense clusters (the footnote's regime: cluster degree >> samples,
      // so the bridge itself is rarely sampled and the partition comes
      // from the cluster samples alone).
      const auto [g, bridge] =
          ds::graph::two_clusters_with_bridge(n, 0.3, rng);
      const ds::model::PublicCoins coins(2000 + n + trial);
      const auto run = ds::model::run_protocol(
          g, ds::protocols::BridgeFinding{10}, coins);
      found += run.output.normalized() == bridge.normalized();
      bits = run.comm.max_bits;
    }
    table.add_row({ds::core::fmt(std::uint64_t{n}), "10",
                   ds::core::fmt(static_cast<std::uint64_t>(bits)),
                   ds::core::fmt(static_cast<double>(found) / kTrials, 2)});
    claims.expect(10 * found >= 9 * kTrials,
                  "E6b n=" + std::to_string(n) + ": P[found] < 0.9");
  }
  table.print(std::cout);
  std::cout << "\nPaper prediction: O(log n)-size sketches find the bridge "
               "w.h.p. —\nthe introduction's evidence that edge-sharing "
               "between players defeats\nthe naive Omega(n) intuition.\n\n";
}

}  // namespace

int main() {
  ds::bench::Claims claims;
  print_agm_scaling(claims);
  print_bridge(claims);
  return claims.exit_code();
}
