// sweep-dmm and sweep-agm: core::sweep_budgets over a scenario's default
// grid, one sweep per unit, sweep i seeded derive_seed(seed, i), on the
// run's pool.  sweep-dmm is the paper's experiment (D_MM sampling
// dominates, no AGM sketch runs); sweep-agm is Yu's connectivity-hard
// instance, where AGM encode and Boruvka decode dominate.
#include <algorithm>
#include <functional>
#include <optional>
#include <stdexcept>

#include "core/sweep.h"
#include "harness.h"
#include "model/runner.h"
#include "parallel/thread_pool.h"
#include "scenario/builtin.h"
#include "util/rng.h"

namespace ds::bench {

namespace {

/// Fingerprint of a sweep: every point's counts, then the threshold.
std::uint64_t fingerprint(const core::SweepResult& result) {
  std::uint64_t h = scenario::kFnvOffset;
  for (const core::SweepPoint& p : result.points) {
    h = scenario::fnv_fold(h, p.budget_bits);
    h = scenario::fnv_fold(h, p.trials);
    h = scenario::fnv_fold(h, p.successes);
    h = scenario::fnv_fold(h, p.max_bits_seen);
  }
  return scenario::fnv_fold(h, result.threshold_budget.value_or(0));
}

struct TrialRecord {
  bool success = false;
  std::size_t max_bits = 0;
  std::size_t total_bits = 0;
};

template <typename Output>
class SweepWorkload final : public Workload {
 public:
  using Scenario = scenario::TypedScenario<Output>;
  using Factory = std::function<std::unique_ptr<Scenario>()>;

  SweepWorkload(const Context& ctx, Factory make)
      : ctx_(ctx), make_(std::move(make)) {}

  void setup() override {
    scenario_.reset();
    scenario_ = make_();
    run_unit(0);
  }

  void run_unit(std::uint64_t index) override {
    Tracer* tracer = ctx_.tracer_for(index);
    const scenario::Grid& grid = scenario_->default_grid();
    const std::uint64_t seed = util::derive_seed(ctx_.opt.seed, index);
    const std::size_t trials = grid.budgets.size() * grid.trials;
    const std::uint64_t t0 = steady_ns();
    core::SweepResult result;
    try {
      result = ctx_.opt.trace ? composed_sweep(seed, index, tracer)
                          : core::sweep_budgets(*scenario_, grid.budgets,
                                                grid.trials, seed,
                                                grid.target_rate, &ctx_.pool);
    } catch (const std::exception&) {
      if (index == 0) throw;
      attempted_ += trials;
      failed_ += trials;
      return;
    }
    const double ms = ms_since(t0);
    if (index == 0) return;
    attempted_ += trials;
    sweep_ms_.push_back(ms);
    if (index == 1) first_ = fingerprint(result);
    if (tracer != nullptr) traced_trials_ += trials;
  }

  void check(std::vector<std::string>& misses) override {
    if (!first_.has_value()) {
      misses.push_back("sweep 1 did not complete");
      return;
    }
    // The same sweep through the public call, on a pool of another lane
    // count than the run's.
    const std::size_t twin_lanes = ctx_.pool.num_threads() == 1 ? 4 : 1;
    parallel::ThreadPool other(twin_lanes);
    const scenario::Grid& grid = scenario_->default_grid();
    const core::SweepResult twin = core::sweep_budgets(
        *scenario_, grid.budgets, grid.trials,
        util::derive_seed(ctx_.opt.seed, 1), grid.target_rate, &other);
    if (fingerprint(twin) != *first_) {
      misses.push_back("sweep 1 fingerprint differs from its ThreadPool(" +
                       std::to_string(twin_lanes) + ") twin");
    }
  }

  [[nodiscard]] Tally tally() const override {
    return {attempted_, failed_};
  }

  [[nodiscard]] std::vector<Metric> end_to_end(
      double loop_seconds) const override {
    return {{"latency_ms_p50", percentile(sweep_ms_, 50), "ms"},
            {"latency_ms_tail", percentile(sweep_ms_, 75), "ms"},
            {"throughput_per_s",
             static_cast<double>(attempted_ - failed_) / loop_seconds,
             "1/s"}};
  }

  [[nodiscard]] std::vector<Metric> per_layer(
      const TraceSummary& trace) const override {
    const SpanTotals collect = trace.get("engine.collect");
    const SpanTotals decode = trace.get("protocols.decode");
    const double trials = static_cast<double>(traced_trials_);
    const double sketch_bytes = static_cast<double>(traced_bits_) / 8.0;
    const double players =
        trials * static_cast<double>(scenario_->num_vertices());
    return {{"input_ms", trace.get("scenario.sample").mean_ms(), "ms"},
            {"encode_ms", collect.mean_ms(), "ms"},
            {"encode_items_per_s", players / (collect.total_ms / 1e3), "1/s"},
            {"decode_ms", decode.mean_ms(), "ms"},
            {"decode_mb_per_s", sketch_bytes / kMB / (decode.total_ms / 1e3),
             "MB/s"},
            {"sketch_bytes", sketch_bytes / trials, "bytes"}};
  }

 private:
  /// sweep_budgets' trial loop and fold, with each layer called
  /// separately: sample -> make_protocol -> collect_sketches -> decode
  /// -> judge, over the same (budget, trial seed) pairs.
  core::SweepResult composed_sweep(std::uint64_t seed, std::uint64_t index,
                                   Tracer* tracer) {
    const scenario::Grid& grid = scenario_->default_grid();
    const Span root(tracer, "sweep", 0, index);
    core::SweepResult result;
    std::vector<TrialRecord> records(grid.trials);
    for (const std::size_t budget : grid.budgets) {
      ctx_.pool.parallel_for(0, grid.trials, [&](std::size_t trial) {
        const std::uint64_t trial_seed = util::derive_seed(seed, trial);
        const Span span(tracer, "trial", root.id(), trial_seed);
        records[trial] = composed_trial(budget, trial_seed, tracer);
      });
      core::SweepPoint point;
      point.budget_bits = budget;
      for (const TrialRecord& r : records) {
        ++point.trials;
        if (r.success) ++point.successes;
        point.max_bits_seen = std::max(point.max_bits_seen, r.max_bits);
        if (tracer != nullptr) traced_bits_ += r.total_bits;
      }
      point.rate = static_cast<double>(point.successes) /
                   static_cast<double>(point.trials);
      if (!result.threshold_budget.has_value() &&
          point.rate >= grid.target_rate) {
        result.threshold_budget = budget;
      }
      result.points.push_back(point);
    }
    return result;
  }

  TrialRecord composed_trial(std::size_t budget, std::uint64_t trial_seed,
                             Tracer* tracer) {
    scenario::Instance inst;
    {
      const Span span(tracer, "scenario.sample");
      inst = scenario_->sample(trial_seed);
    }
    std::unique_ptr<model::SketchingProtocol<Output>> protocol;
    {
      const Span span(tracer, "scenario.make_protocol");
      protocol = scenario_->make_protocol(budget);
    }
    const model::PublicCoins coins = scenario::trial_coins(trial_seed);
    model::CommStats comm;
    std::vector<util::BitString> sketches;
    {
      const Span span(tracer, "engine.collect");
      sketches = model::collect_sketches(inst.g, *protocol, coins, comm,
                                         &ctx_.pool);
    }
    Output output{};
    {
      const Span span(tracer, "protocols.decode");
      output = protocol->decode(inst.g.num_vertices(), sketches, coins);
    }
    const Span span(tracer, "scenario.judge");
    return {scenario_->judge(inst, output), comm.max_bits, comm.total_bits};
  }

  Context ctx_;
  Factory make_;
  std::unique_ptr<Scenario> scenario_;
  std::vector<double> sweep_ms_;
  std::optional<std::uint64_t> first_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t traced_trials_ = 0;
  std::uint64_t traced_bits_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_sweep_dmm(const Context& ctx) {
  const std::uint64_t m = ctx.opt.smoke ? 8 : 64;
  return std::make_unique<SweepWorkload<model::MatchingOutput>>(
      ctx,
      [m] { return std::make_unique<scenario::DmmMatchingScenario>(m); });
}

std::unique_ptr<Workload> make_sweep_agm(const Context& ctx) {
  const graph::Vertex levels = ctx.opt.smoke ? 8 : 64;
  const graph::Vertex width = ctx.opt.smoke ? 4 : 32;
  return std::make_unique<SweepWorkload<std::uint32_t>>(
      ctx, [levels, width] {
        return std::make_unique<scenario::ConnectivityYuHardScenario>(levels,
                                                                      width);
      });
}

}  // namespace ds::bench
