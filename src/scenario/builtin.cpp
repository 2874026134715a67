// Built-in scenario implementations and THE registration site: all
// register_scenario calls in the tree live in register_builtins below
// (distsketch-lint's scenario-registry rule rejects calls anywhere else).
#include "scenario/builtin.h"

#include <algorithm>
#include <sstream>

#include "graph/connectivity.h"
#include "graph/independent_set.h"
#include "graph/matching.h"
#include "lowerbound/mis_reduction.h"
#include "protocols/sampled_matching.h"
#include "protocols/sampled_mis.h"
#include "protocols/zoo.h"
#include "scenario/registry.h"
#include "sketch/agm.h"
#include "util/bitio.h"

namespace ds::scenario {

namespace {

/// Shared by both maximal-matching judges; equivalent to
/// core::score_matching(g, m).maximal without a core dependency
/// (scenario sits below core in the layering DAG).
bool maximal_matching_judge(const graph::Graph& g,
                            std::span<const graph::Edge> m) {
  return graph::is_matching(m, g.num_vertices()) &&
         graph::is_valid_matching(g, m) && graph::is_maximal_matching(g, m);
}

}  // namespace

// --------------------------------------------------------------- D_MM MM

DmmMatchingScenario::DmmMatchingScenario(std::uint64_t m)
    : base_(rs::rs_graph(m)),
      params_(lowerbound::dmm_parameters(base_, base_.t())) {
  const unsigned width = util::bit_width_for(params_.n);
  const std::size_t cap =
      static_cast<std::size_t>(params_.k * params_.r) * width;
  grid_ = {geometric_ladder(width, cap, 4.0), /*trials=*/24, /*seed=*/7,
           /*target_rate=*/0.9};
  description_ = "maximal matching on the Section 3.1 hard distribution "
                 "D_MM (n=" +
                 std::to_string(params_.n) +
                 ", k=" + std::to_string(params_.k) +
                 ", r=" + std::to_string(params_.r) +
                 ") vs the budgeted edge-report family";
}

Instance DmmMatchingScenario::sample(std::uint64_t trial_seed) const {
  util::Rng rng(trial_seed);
  auto inst = std::make_shared<lowerbound::DmmInstance>(
      lowerbound::sample_dmm(base_, params_.t, rng));
  graph::Graph g = inst->g;
  return {std::move(g), std::move(inst)};
}

std::unique_ptr<model::SketchingProtocol<model::MatchingOutput>>
DmmMatchingScenario::make_protocol(std::size_t budget_bits) const {
  return std::make_unique<protocols::BudgetedMatching>(budget_bits);
}

bool DmmMatchingScenario::judge(const Instance& inst,
                                const model::MatchingOutput& m) const {
  return maximal_matching_judge(inst.g, m);
}

// ------------------------------------------------------ D_MM via MIS (S4)

DmmMisReductionScenario::DmmMisReductionScenario(std::uint64_t m)
    : base_(rs::rs_graph(m)),
      params_(lowerbound::dmm_parameters(base_, base_.t())) {
  const graph::Vertex h_n = 2 * params_.n;
  const unsigned width = util::bit_width_for(h_n);
  const std::size_t cap =
      2 * static_cast<std::size_t>(params_.k * params_.r) * width;
  grid_ = {geometric_ladder(width, cap, 4.0), /*trials=*/16, /*seed=*/7,
           /*target_rate=*/0.9};
  description_ = "the Section 4 reduction: budgeted MIS on H (2n=" +
                 std::to_string(h_n) +
                 " vertices), decoded back to a D_MM matching and scored "
                 "by Remark 3.6";
}

Instance DmmMisReductionScenario::sample(std::uint64_t trial_seed) const {
  util::Rng rng(trial_seed);
  auto inst = std::make_shared<lowerbound::DmmInstance>(
      lowerbound::sample_dmm(base_, params_.t, rng));
  graph::Graph h = lowerbound::build_reduction_graph(*inst);
  return {std::move(h), std::move(inst)};
}

std::unique_ptr<model::SketchingProtocol<model::VertexSetOutput>>
DmmMisReductionScenario::make_protocol(std::size_t budget_bits) const {
  return std::make_unique<protocols::BudgetedMis>(budget_bits);
}

bool DmmMisReductionScenario::judge(const Instance& inst,
                                    const model::VertexSetOutput& s) const {
  const auto& dmm = witness_as<lowerbound::DmmInstance>(inst);
  const graph::Matching m = lowerbound::decode_matching_from_mis(dmm, s);
  if (!graph::is_matching(m, dmm.params.n)) return false;
  if (!graph::is_valid_matching(dmm.g, m)) return false;
  return lowerbound::count_unique_unique(dmm, m) >=
         dmm.params.claim31_threshold();
}

// ------------------------------------------------------------ G(n,p) MM

GnpMatchingScenario::GnpMatchingScenario(graph::Vertex n, double p)
    : n_(n), p_(p) {
  grid_ = {{1, 64, 2048}, /*trials=*/16, /*seed=*/7, /*target_rate=*/0.99};
  std::ostringstream desc;
  desc << "maximal matching on G(" << n << ", " << p
       << ") vs the budgeted edge-report family (smoke-scale)";
  description_ = desc.str();
}

Instance GnpMatchingScenario::sample(std::uint64_t trial_seed) const {
  util::Rng rng(trial_seed);
  return {graph::gnp(n_, p_, rng), nullptr};
}

std::unique_ptr<model::SketchingProtocol<model::MatchingOutput>>
GnpMatchingScenario::make_protocol(std::size_t budget_bits) const {
  return std::make_unique<protocols::BudgetedMatching>(budget_bits);
}

bool GnpMatchingScenario::judge(const Instance& inst,
                                const model::MatchingOutput& m) const {
  return maximal_matching_judge(inst.g, m);
}

// -------------------------------------------------- connectivity-yu-hard

ConnectivityYuHardScenario::ConnectivityYuHardScenario(graph::Vertex levels,
                                                       graph::Vertex width)
    : levels_(levels), width_(width) {
  const graph::Vertex n = levels_ * width_;
  // One Boruvka round's sketch cost depends on n alone.  The budget buys
  // floor(budget / per_round) rounds, capped at the Boruvka default.
  per_round_bits_ = sketch::agm_state_bits(n, /*rounds=*/1);
  max_rounds_ = sketch::agm_default_rounds(n);
  grid_ = {geometric_ladder(per_round_bits_, per_round_bits_ * max_rounds_,
                            2.0),
           /*trials=*/12, /*seed=*/7, /*target_rate=*/0.9};
  description_ = "exact component counting on Yu's layered hard shape "
                 "(arXiv 2007.12323; " +
                 std::to_string(levels_) + " levels x " +
                 std::to_string(width_) +
                 ", p=1/2 survival) vs AGM connectivity; budget buys "
                 "Boruvka rounds at " +
                 std::to_string(per_round_bits_) + " bits each";
}

Instance ConnectivityYuHardScenario::sample(std::uint64_t trial_seed) const {
  util::Rng rng(trial_seed);
  graph::LayeredInstance layered =
      graph::layered_paths(levels_, width_, /*keep_prob=*/0.5, rng);
  auto witness = std::make_shared<std::uint32_t>(
      graph::connected_components(layered.graph).count);
  return {std::move(layered.graph), std::move(witness)};
}

std::unique_ptr<model::SketchingProtocol<std::uint32_t>>
ConnectivityYuHardScenario::make_protocol(std::size_t budget_bits) const {
  const std::size_t affordable =
      per_round_bits_ == 0 ? 1 : budget_bits / per_round_bits_;
  const unsigned rounds = static_cast<unsigned>(
      std::clamp<std::size_t>(affordable, 1, max_rounds_));
  return std::make_unique<protocols::AgmConnectivity>(rounds);
}

bool ConnectivityYuHardScenario::judge(const Instance& inst,
                                       const std::uint32_t& components) const {
  return components == witness_as<std::uint32_t>(inst);
}

// --------------------------------------------------------------- easy-cc

EasyCcScenario::EasyCcScenario(graph::Vertex clusters,
                               graph::Vertex cluster_size, double keep_prob)
    : clusters_(clusters), cluster_size_(cluster_size),
      keep_prob_(keep_prob) {
  grid_ = {geometric_ladder(4, 1024, 4.0), /*trials=*/16, /*seed=*/7,
           /*target_rate=*/0.9};
  description_ = "maximal matching on the easy structured class (arXiv "
                 "2502.21031): " +
                 std::to_string(clusters_) + " disjoint clusters of " +
                 std::to_string(cluster_size_) +
                 " — the budget-collapse contrast to dmm-matching";
}

Instance EasyCcScenario::sample(std::uint64_t trial_seed) const {
  util::Rng rng(trial_seed);
  return {graph::cluster_graph(clusters_, cluster_size_, keep_prob_, rng),
          nullptr};
}

std::unique_ptr<model::SketchingProtocol<model::MatchingOutput>>
EasyCcScenario::make_protocol(std::size_t budget_bits) const {
  return std::make_unique<protocols::BudgetedMatching>(budget_bits);
}

bool EasyCcScenario::judge(const Instance& inst,
                           const model::MatchingOutput& m) const {
  return maximal_matching_judge(inst.g, m);
}

// ----------------------------------------------------------- easy-cc-mis

EasyCcMisScenario::EasyCcMisScenario(graph::Vertex clusters,
                                     graph::Vertex cluster_size,
                                     double keep_prob)
    : clusters_(clusters), cluster_size_(cluster_size),
      keep_prob_(keep_prob) {
  grid_ = {geometric_ladder(4, 1024, 4.0), /*trials=*/16, /*seed=*/7,
           /*target_rate=*/0.9};
  description_ = "MIS on the same easy cluster class as easy-cc, judged "
                 "for independence + maximality";
}

Instance EasyCcMisScenario::sample(std::uint64_t trial_seed) const {
  util::Rng rng(trial_seed);
  return {graph::cluster_graph(clusters_, cluster_size_, keep_prob_, rng),
          nullptr};
}

std::unique_ptr<model::SketchingProtocol<model::VertexSetOutput>>
EasyCcMisScenario::make_protocol(std::size_t budget_bits) const {
  return std::make_unique<protocols::BudgetedMis>(budget_bits);
}

bool EasyCcMisScenario::judge(const Instance& inst,
                              const model::VertexSetOutput& s) const {
  return graph::is_independent_set(inst.g, s) &&
         graph::is_maximal_independent_set(inst.g, s);
}

// ------------------------------------------------------------ registration

namespace detail {

void register_builtins() {
  register_scenario(std::make_unique<DmmMatchingScenario>(16));
  register_scenario(std::make_unique<DmmMisReductionScenario>(8));
  register_scenario(std::make_unique<GnpMatchingScenario>(30, 0.2));
  register_scenario(std::make_unique<ConnectivityYuHardScenario>(16, 8));
  register_scenario(std::make_unique<EasyCcScenario>(12, 8, 0.9));
  register_scenario(std::make_unique<EasyCcMisScenario>(12, 8, 0.9));
}

}  // namespace detail

}  // namespace ds::scenario
