// ds_bench: the one binary of the benchmark of record
// (bench/suite/README.md).
//
//   ds_bench --workload sweep-dmm|sweep-agm|wire-easycc|stream-rmat
//            [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]
//            [--smoke]
//
// Sets the workload up several times (setup_s is the median), then runs
// units for S seconds, then checks the outputs outside the clock.  It
// prints one `<workload> <metric> <value> <unit>` line per metric and,
// as the last line, one JSON object with the keys correct, attempted,
// failed and metrics: the end-to-end metrics, or with --trace 1 the
// per-layer metrics of a traced run.  Exit status: 0 when every gate
// passes, 1 when one misses, 2 on bad usage or a failed setup.
#include <sys/resource.h>

#include <array>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string_view>
#include <thread>

#include "harness.h"
#include "obs/obs.h"
#include "parallel/thread_pool.h"

namespace {

using ds::bench::Metric;

// setup() runs at least kMinSetups times, and more while the setups so far
// took under kSetupBudgetS, up to kMaxSetups: cheap setups get a steadier
// median without making slow ones slower.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 20;
constexpr double kSetupBudgetS = 2.0;
constexpr std::uint64_t kMinUnits = 4;

struct Entry {
  std::string_view name;
  std::unique_ptr<ds::bench::Workload> (*make)(const ds::bench::Context&);
  /// The run's pool has min(max_lanes, nproc) lanes.  Only sweep-dmm, whose
  /// whole process stays under 16 MB, scales steadily.  sweep-agm (~53 MB
  /// of sketches a lane) and stream-rmat (one ~100 MB state, plus the
  /// snapshot thread) run one lane: more lanes fight over the shared cache
  /// and doubled or tripled their run-to-run spread.  Wire's timed loop
  /// uses no pool.
  std::size_t max_lanes;
};

constexpr std::array<Entry, 4> kWorkloads = {{
    {"sweep-dmm", ds::bench::make_sweep_dmm, 4},
    {"sweep-agm", ds::bench::make_sweep_agm, 1},
    {"wire-easycc", ds::bench::make_wire_easycc, 1},
    {"stream-rmat", ds::bench::make_stream_rmat, 1},
}};

int usage() {
  std::cerr << "usage: ds_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out PATH] [--smoke]\n  workloads:";
  for (const Entry& e : kWorkloads) std::cerr << ' ' << e.name;
  std::cerr << '\n';
  return 2;
}

/// Shortest text that reads back as exactly `v`.
std::string number(double v) {
  std::array<char, 32> buf{};
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  return ec == std::errc{} ? std::string(buf.data(), end) : "0";
}

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

double max_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / ds::bench::kMB;
}

int run(const Entry& entry, const ds::bench::Options& opt,
        const std::string& trace_out) {
  using namespace ds::bench;
  // The library's own obs metrics stay off for end-to-end runs; a traced
  // run turns them on to read the referee's phase histograms.
  ds::obs::set_trace_enabled(false);
  ds::obs::set_metrics_enabled(opt.trace);
  const std::size_t lanes = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, entry.max_lanes);
  ds::parallel::ThreadPool pool(lanes);
  Tracer tracer;
  const Context ctx{opt, pool, tracer};
  const std::unique_ptr<Workload> workload = entry.make(ctx);

  std::vector<double> setup_s;
  const std::uint64_t setup_start = steady_ns();
  while (setup_s.size() < kMinSetups ||
         (setup_s.size() < kMaxSetups &&
          ms_since(setup_start) / 1e3 < kSetupBudgetS)) {
    const std::uint64_t t0 = steady_ns();
    workload->setup();
    setup_s.push_back(ms_since(t0) / 1e3);
  }
  ds::obs::reset();

  std::array<std::vector<double>, 2> unit_ms;  // [traced]
  const double cpu0 = cpu_seconds();
  const std::uint64_t start = steady_ns();
  for (std::uint64_t i = 1;
       i <= kMinUnits || ms_since(start) / 1e3 < opt.seconds; ++i) {
    const std::uint64_t t0 = steady_ns();
    workload->run_unit(i);
    unit_ms[ctx.tracer_for(i) != nullptr ? 1 : 0].push_back(ms_since(t0));
  }
  const double loop_s = ms_since(start) / 1e3;
  const double cpu_s = cpu_seconds() - cpu0;
  const double rss_mb = max_rss_mb();
  workload->finish();

  std::vector<std::string> misses;
  workload->check(misses);
  const Tally tally = workload->tally();

  std::vector<Metric> metrics;
  std::vector<Metric> detail;
  if (opt.trace) {
    const TraceSummary trace = tracer.summarize();
    metrics = workload->per_layer(trace);
    metrics.push_back({"cpu_busy_frac",
                       cpu_s / (static_cast<double>(lanes) * loop_s), "frac"});
    metrics.push_back(
        {"unattributed_frac", trace.unattributed_frac(), "frac"});
    metrics.push_back({"trace_overhead_frac",
                       percentile(unit_ms[1], 50) / percentile(unit_ms[0], 50) -
                           1.0,
                       "frac"});
    for (const auto& [name, totals] : trace.by_name) {
      detail.push_back({"span." + name + ".ms", totals.mean_ms(), "ms"});
      detail.push_back({"span." + name + ".self_ms",
                        totals.self_ms / static_cast<double>(totals.count),
                        "ms"});
    }
    for (const Metric& m : workload->detail()) detail.push_back(m);
    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      tracer.write_chrome_json(out);
      if (!out) misses.push_back("could not write " + trace_out);
    }
  } else {
    metrics.push_back({"setup_s", percentile(setup_s, 50), "s"});
    for (const Metric& m : workload->end_to_end(loop_s)) metrics.push_back(m);
    metrics.push_back({"max_rss_mb", rss_mb, "MB"});
  }
  detail.push_back({"units", static_cast<double>(unit_ms[0].size() +
                                                 unit_ms[1].size()),
                    "count"});
  detail.push_back({"failed_frac",
                    static_cast<double>(tally.failed) /
                        static_cast<double>(std::max<std::uint64_t>(
                            tally.attempted, 1)),
                    "frac"});

  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) misses.push_back(m.name + " is not finite");
  }
  for (const std::string& miss : misses) std::cerr << "gate: " << miss << '\n';

  for (const Metric& m : detail) {
    std::cout << opt.workload << ' ' << m.name << ' ' << number(m.value)
              << ' ' << m.unit << '\n';
  }
  for (const Metric& m : metrics) {
    std::cout << opt.workload << ' ' << m.name << ' ' << number(m.value)
              << ' ' << m.unit << '\n';
  }
  std::cout << "{\"correct\": " << (misses.empty() ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  const char* sep = "";
  for (const Metric& m : metrics) {
    std::cout << sep << '"' << m.name << "\": {\"value\": "
              << (std::isfinite(m.value) ? number(m.value) : "0")
              << ", \"unit\": \"" << m.unit << "\"}";
    sep = ", ";
  }
  std::cout << "}}" << std::endl;
  return misses.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ds::bench::Options opt;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return usage();
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) return usage();
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage();
      opt.trace = value == "1";
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return usage();
    }
  }
  for (const Entry& entry : kWorkloads) {
    if (entry.name != opt.workload) continue;
    try {
      return run(entry, opt, trace_out);
    } catch (const std::exception& e) {
      std::cerr << "ds_bench: " << opt.workload << ": " << e.what() << '\n';
      return 2;
    }
  }
  return usage();
}
