// E1 — Proposition 2.1: (r, t)-Ruzsa-Szemeredi graphs with
// r = N / e^{Theta(sqrt(log N))} and t = Theta(N) from Behrend sets.
//
// Paper prediction: r/N decays like 1/e^{c*sqrt(log N)} (sub-polynomial),
// t/N is a constant (1/3 in the paper's construction, 1/5 in ours — a
// block-layout constant absorbed by the Theta).
//
// Checked: every validated row reads yes, and r/N falls row over row.
#include <cmath>
#include <iostream>

#include "claims.h"
#include "core/report.h"
#include "rs/ap_free.h"
#include "rs/rs_graph.h"

namespace {

void print_experiment(ds::bench::Claims& claims) {
  std::cout << "=== E1: Ruzsa-Szemeredi graphs from Behrend sets "
               "(Proposition 2.1) ===\n";
  ds::core::Table table({"m", "N", "r=|S|", "t", "r/N", "t/N",
                         "e^sqrt(ln N)", "N/(r*e^sqrt(ln N))", "verified"});
  double previous_density = 1.0;
  for (std::uint64_t m :
       {10ULL, 30ULL, 100ULL, 300ULL, 1000ULL, 3000ULL, 10000ULL, 30000ULL,
        100000ULL}) {
    const ds::rs::RsParameters p = ds::rs::rs_parameters(m);
    const double n = static_cast<double>(p.n);
    const double denom = std::exp(std::sqrt(std::log(n)));
    const double density = static_cast<double>(p.r) / n;
    // If r = N / e^{c sqrt(log N)}, the last column is ~constant in N for
    // the right c; we display c = 1 and let the trend speak.
    const bool verify = m <= 300 && ds::rs::verify_rs(ds::rs::rs_graph(m));
    table.add_row({ds::core::fmt(m), ds::core::fmt(p.n), ds::core::fmt(p.r),
                   ds::core::fmt(p.t), ds::core::fmt(density, 5),
                   ds::core::fmt(static_cast<double>(p.t) / n, 3),
                   ds::core::fmt(denom, 1),
                   ds::core::fmt(n / (static_cast<double>(p.r) * denom), 3),
                   m <= 300 ? ds::core::fmt_bool(verify) : "(skipped)"});
    const std::string row = "E1 m=" + std::to_string(m);
    claims.expect(m > 300 || verify, row + ": RS validation fails");
    claims.expect(density < previous_density, row + ": r/N does not fall");
    previous_density = density;
  }
  table.print(std::cout);
  std::cout << "\nShape check: r/N decays sub-polynomially (column 5 falls,"
               "\nbut much slower than 1/N); t/N is constant; full RS"
               "\nvalidation (partition + induced) passes where run.\n\n";
}

}  // namespace

int main() {
  ds::bench::Claims claims;
  print_experiment(claims);
  return claims.exit_code();
}
