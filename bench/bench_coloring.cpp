// E7 — the sharpest contrast (Section 1.1): (Delta+1)-coloring, a
// symmetry-breaking problem like MM/MIS, admits O(log^3 n)-bit sketches
// via palette sparsification [Assadi-Chen-Khanna SODA'19].
//
// Checked: P[proper] = 1 on every row, and bits/(log2 n)^3 never rises.
#include <cmath>
#include <iostream>
#include <limits>

#include "claims.h"
#include "core/report.h"
#include "graph/generators.h"
#include "model/runner.h"
#include "protocols/coloring.h"

namespace {

bool proper(const ds::graph::Graph& g, const ds::model::ColoringOutput& c,
            std::uint32_t num_colors) {
  for (ds::graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    if (c[v] == ds::protocols::kUncolored || c[v] >= num_colors) return false;
    for (ds::graph::Vertex w : g.neighbors(v)) {
      if (c[v] == c[w]) return false;
    }
  }
  return true;
}

void print_experiment(ds::bench::Claims& claims) {
  std::cout << "=== E7: (Delta+1)-coloring by palette sparsification ===\n";
  ds::core::Table table({"n", "avg deg", "Delta+1", "list", "bits/player",
                         "bits/(log2 n)^3", "bits/n", "P[proper]"});
  double previous_cubed = std::numeric_limits<double>::infinity();
  for (ds::graph::Vertex n : {64u, 128u, 256u, 512u, 1024u}) {
    ds::util::Rng rng(n);
    const double avg_deg = 12.0;
    std::size_t bits = 0, ok = 0;
    std::uint32_t palette = 0, list_size = 0;
    constexpr std::size_t kTrials = 5;
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      const ds::graph::Graph g = ds::graph::gnp(n, avg_deg / n, rng);
      palette = g.max_degree() + 1;
      list_size = static_cast<std::uint32_t>(
          4 * std::log2(static_cast<double>(n)) + 4);
      const ds::protocols::PaletteSparsificationColoring protocol(
          palette, list_size);
      const ds::model::PublicCoins coins(3000 + n + trial);
      const auto run = ds::model::run_protocol(g, protocol, coins);
      bits = std::max(bits, run.comm.max_bits);
      ok += proper(g, run.output, palette);
    }
    const double log_n = std::log2(static_cast<double>(n));
    const double cubed = static_cast<double>(bits) / (log_n * log_n * log_n);
    table.add_row(
        {ds::core::fmt(std::uint64_t{n}), ds::core::fmt(avg_deg, 0),
         ds::core::fmt(std::uint64_t{palette}),
         ds::core::fmt(std::uint64_t{list_size}),
         ds::core::fmt(static_cast<std::uint64_t>(bits)),
         ds::core::fmt(cubed, 2),
         ds::core::fmt(static_cast<double>(bits) / n, 2),
         ds::core::fmt(static_cast<double>(ok) / kTrials, 2)});
    const std::string row = "E7 n=" + std::to_string(n);
    claims.expect(ok == kTrials, row + ": P[proper] < 1");
    claims.expect(cubed <= previous_cubed, row + ": bits/(log2 n)^3 rises");
    previous_cubed = cubed;
  }
  table.print(std::cout);
  std::cout
      << "\nPaper prediction: a symmetry-breaking problem with polylog "
         "sketches —\nbits/(log n)^3 roughly flat, success ~1 — unlike "
         "maximal matching and MIS,\nwhich Theorems 1-2 pin at "
         "Omega(sqrt(n)) in the same model.\n\n";
}

}  // namespace

int main() {
  ds::bench::Claims claims;
  print_experiment(claims);
  return claims.exit_code();
}
