// The contract between ds_bench's main loop (ds_bench.cpp) and its four
// workloads.  A run is: setup() several times (the median is setup_s),
// then run_unit(1), run_unit(2), ... until the run's seconds are spent,
// then finish() and the correctness gates, outside the clock.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace ds::parallel {
class ThreadPool;
}

namespace ds::bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;  // compose each unit layer by layer, with spans
  bool smoke = false;  // toy-scale inputs, for the smoke test
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Operations attempted and failed in the measured units.  A judge
/// returning false is an outcome, not a failure.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// What every workload runs with: the options, the run's pool and the
/// tracer.  Unit 0 is the warm-up unit setup() runs.  A traced run
/// composes every unit layer by layer; odd units record spans and even
/// units run the same composed calls with no tracer, so the pair gives
/// the tracing overhead.  Load generators on other threads (wire players)
/// follow the same rule.
struct Context {
  const Options& opt;
  parallel::ThreadPool& pool;
  Tracer& tracer;

  [[nodiscard]] Tracer* tracer_for(std::uint64_t index) const noexcept {
    return opt.trace && index % 2 == 1 ? &tracer : nullptr;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the inputs and load generators, then run warm-up unit 0.
  /// Each call replaces what the previous call built.
  virtual void setup() = 0;
  /// One measured unit.  Untraced runs make the public calls a user
  /// makes; traced runs call each layer separately on the same inputs.
  virtual void run_unit(std::uint64_t index) = 0;
  /// Stop load generators; every thread the workload started has ended
  /// when this returns.
  virtual void finish() {}
  /// Correctness gates, run after finish(); appends one line per miss.
  virtual void check(std::vector<std::string>& misses) = 0;
  /// Workload-specific figures printed beside the traced run's spans.
  [[nodiscard]] virtual std::vector<Metric> detail() const { return {}; }

  [[nodiscard]] virtual Tally tally() const = 0;
  /// latency_ms_p50, latency_ms_tail and throughput_per_s.
  [[nodiscard]] virtual std::vector<Metric> end_to_end(
      double loop_seconds) const = 0;
  /// input_ms, encode_ms, encode_items_per_s, decode_ms,
  /// decode_mb_per_s and sketch_bytes, from the traced units.
  [[nodiscard]] virtual std::vector<Metric> per_layer(
      const TraceSummary& trace) const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_sweep_dmm(const Context& ctx);
[[nodiscard]] std::unique_ptr<Workload> make_sweep_agm(const Context& ctx);
[[nodiscard]] std::unique_ptr<Workload> make_wire_easycc(const Context& ctx);
[[nodiscard]] std::unique_ptr<Workload> make_stream_rmat(const Context& ctx);

/// Linear-interpolated percentile, p in [0, 100]; 0 for no samples.
[[nodiscard]] inline double percentile(std::vector<double> samples,
                                       double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

[[nodiscard]] inline double ms_since(std::uint64_t start_ns) noexcept {
  return static_cast<double>(steady_ns() - start_ns) / 1e6;
}

/// Bytes per MB in every MB figure ds_bench prints.
inline constexpr double kMB = 1e6;

}  // namespace ds::bench
