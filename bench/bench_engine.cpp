// P2: the engine's buffer-pooling layer (ISSUE 5 tentpole perf fold-in).
//
// The hot encode loop used to allocate one heap BitString per vertex per
// trial.  With a SketchArena the engine adopts pooled word storage into
// each BitWriter and reclaims it after the round, so steady-state encodes
// perform zero per-vertex heap allocations.  This bench measures both
// configurations on the same instances — wall time, encode throughput,
// and the ACTUAL global allocation count via an operator-new override —
// and emits BENCH_engine.json.
//
// Exits nonzero if pooled and unpooled sketches differ bit for bit, if
// the pooled steady state still allocates per vertex (allocations per
// trial >= n on an encode-only case), or if any case reports a zero
// decode rate (its referee decode went unmeasured).
//
// Roofline instrumentation (ISSUE 9): every case also reports the sketch
// payload bytes per trial, encode/decode MB/s, and — on x86_64, via
// rdtsc — encode bytes per cycle, the memory-bandwidth-bound figure of
// merit for the word-at-a-time bitio + batched hashing hot path.  With
// `--baseline BENCH_engine.json` the binary exits nonzero if any case's
// encode MB/s drops below 80% of the committed baseline (the CI
// no-regression gate); `--quick` shrinks trial counts for that gate.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "engine/arena.h"
#include "engine/local_source.h"
#include "graph/generators.h"
#include "model/runner.h"
#include "parallel/thread_pool.h"
#include "protocols/spanning_forest.h"
#include "protocols/trivial.h"
#include "util/rng.h"

// ---------------------------------------------------------------------------
// Global allocation counter.  Counts every operator-new in the process
// (all threads), so measured regions below snapshot before/after.

namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ds {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::uint64_t fingerprint(std::span<const util::BitString> sketches) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (const util::BitString& s : sketches) {
    h = util::mix64(h, s.bit_count());
    for (std::uint64_t w : s.words()) h = util::mix64(h, w);
  }
  return h;
}

/// Cycle counter for the bytes-per-cycle roofline figure; 0 on targets
/// without an invariant TSC (the JSON then reports bytes_per_cycle 0).
std::uint64_t read_cycles() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return 0;
#endif
}

std::size_t payload_bytes(std::span<const util::BitString> sketches) {
  std::size_t bytes = 0;
  for (const util::BitString& s : sketches) bytes += (s.bit_count() + 7) / 8;
  return bytes;
}

struct Measured {
  double ms = 0.0;
  std::uint64_t cycles = 0;
  std::size_t allocs_per_trial = 0;
  std::uint64_t fingerprint = 0;
};

struct CaseRecord {
  std::string name;
  std::size_t n = 0;
  std::size_t trials = 0;
  Measured unpooled;
  Measured pooled;
  std::size_t bytes_per_trial = 0;  // summed sketch payload, one trial
  double decode_ms = 0.0;           // referee decode over `trials` passes
  bool identical = false;
  bool zero_per_vertex = false;  // pooled steady state: allocs/trial < n
  bool gate_allocs = true;       // encode-only cases gate on the above
};

double mb_per_sec(std::size_t bytes_per_trial, std::size_t trials,
                  double ms) {
  if (ms <= 0.0) return 0.0;
  const double total = static_cast<double>(bytes_per_trial) *
                       static_cast<double>(trials);
  return total / (ms / 1000.0) / 1e6;
}

double bytes_per_cycle(const CaseRecord& rec) {
  if (rec.pooled.cycles == 0) return 0.0;
  return static_cast<double>(rec.bytes_per_trial) *
         static_cast<double>(rec.trials) /
         static_cast<double>(rec.pooled.cycles);
}

/// Run `trials` encode-only rounds through a LocalSource; with an arena
/// the round's storage is reclaimed after each trial (the sweep pattern).
template <typename Source>
Measured measure_collect(Source& source, engine::SketchArena* arena,
                         std::size_t trials) {
  Measured m;
  for (int warm = 0; warm < 2; ++warm) {  // reach arena steady state
    std::vector<util::BitString> sketches = source.collect(0, {});
    m.fingerprint = fingerprint(sketches);
    if (arena != nullptr) arena->reclaim_round(std::move(sketches), 0);
  }
  const std::size_t alloc_start =
      g_alloc_count.load(std::memory_order_relaxed);
  const std::uint64_t cycle_start = read_cycles();
  const auto start = Clock::now();
  for (std::size_t t = 0; t < trials; ++t) {
    std::vector<util::BitString> sketches = source.collect(0, {});
    m.fingerprint = fingerprint(sketches);
    if (arena != nullptr) arena->reclaim_round(std::move(sketches), 0);
  }
  m.ms = ms_since(start);
  m.cycles = read_cycles() - cycle_start;
  m.allocs_per_trial =
      (g_alloc_count.load(std::memory_order_relaxed) - alloc_start) / trials;
  return m;
}

/// Referee decode wall time over `trials` passes of one round's sketches,
/// after one warm pass.
template <typename Output>
double time_decode(const model::SketchingProtocol<Output>& protocol,
                   graph::Vertex n, std::span<const util::BitString> sketches,
                   const model::PublicCoins& coins, std::size_t trials) {
  volatile std::uint64_t sink = 0;
  (void)protocol.decode(n, sketches, coins);  // warm
  const auto start = Clock::now();
  for (std::size_t t = 0; t < trials; ++t) {
    const Output out = protocol.decode(n, sketches, coins);
    sink = sink + out.size();
  }
  return ms_since(start);
}

/// `gate_allocs` should be true only for protocols whose encode performs
/// no internal heap allocation of its own (e.g. TrivialMis): for those,
/// pooled steady-state allocations per trial < n proves the engine's
/// buffer layer allocates nothing per vertex.  Protocols like the AGM
/// sketches construct samplers inside encode — allocations outside the
/// buffer layer's scope — so their cases report counts without gating.
template <typename Output>
CaseRecord encode_case(std::string name, const graph::Graph& g,
                       const model::SketchingProtocol<Output>& protocol,
                       std::uint64_t coin_seed, std::size_t trials,
                       parallel::ThreadPool& pool, bool gate_allocs) {
  const graph::Vertex n = g.num_vertices();
  const model::PublicCoins coins(coin_seed);
  CaseRecord rec;
  rec.name = std::move(name);
  rec.n = n;
  rec.trials = trials;
  rec.gate_allocs = gate_allocs;

  auto unpooled_source = engine::make_local_source(
      n, engine::graph_view_fn(g, coins),
      model::detail::one_round_encode(protocol), &pool, nullptr);
  rec.unpooled = measure_collect(unpooled_source, nullptr, trials);

  engine::SketchArena arena;
  auto pooled_source = engine::make_local_source(
      n, engine::graph_view_fn(g, coins),
      model::detail::one_round_encode(protocol), &pool, &arena);
  rec.pooled = measure_collect(pooled_source, &arena, trials);

  // Roofline payload + referee decode throughput over the same sketches.
  {
    const std::vector<util::BitString> sketches = pooled_source.collect(0, {});
    rec.bytes_per_trial = payload_bytes(sketches);
    rec.decode_ms = time_decode(protocol, n, sketches, coins, trials);
  }

  rec.identical = rec.unpooled.fingerprint == rec.pooled.fingerprint;
  // Zero per-vertex buffers: either literally fewer allocations than
  // vertices, or (for protocols that allocate inside encode) at least one
  // allocation per vertex eliminated relative to the unpooled loop.
  rec.zero_per_vertex =
      rec.pooled.allocs_per_trial < n ||
      rec.pooled.allocs_per_trial + n <= rec.unpooled.allocs_per_trial;
  return rec;
}

/// Full run_protocol (encode + charge + decode) throughput, pooled vs
/// not.  Decode allocates its output, so this case reports allocation
/// counts but does not gate on them.  The referee decode is also timed on
/// its own over one round's sketches, as in encode_case.
template <typename Output>
CaseRecord full_run_case(std::string name, const graph::Graph& g,
                         const model::SketchingProtocol<Output>& protocol,
                         std::uint64_t coin_seed, std::size_t trials,
                         parallel::ThreadPool& pool) {
  const model::PublicCoins coins(coin_seed);
  CaseRecord rec;
  rec.name = std::move(name);
  rec.n = g.num_vertices();
  rec.trials = trials;
  rec.gate_allocs = false;

  auto measure = [&](engine::SketchArena* arena) {
    Measured m;
    for (int warm = 0; warm < 2; ++warm) {
      (void)model::run_protocol(g, protocol, coins, &pool, arena);
    }
    const std::size_t alloc_start =
        g_alloc_count.load(std::memory_order_relaxed);
    const std::uint64_t cycle_start = read_cycles();
    const auto start = Clock::now();
    std::uint64_t fold = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      const auto run = model::run_protocol(g, protocol, coins, &pool, arena);
      fold = util::mix64(fold, run.comm.total_bits);
      rec.bytes_per_trial = (run.comm.total_bits + 7) / 8;
    }
    m.ms = ms_since(start);
    m.cycles = read_cycles() - cycle_start;
    m.fingerprint = fold;
    m.allocs_per_trial =
        (g_alloc_count.load(std::memory_order_relaxed) - alloc_start) /
        trials;
    return m;
  };
  rec.unpooled = measure(nullptr);
  engine::SketchArena arena;
  rec.pooled = measure(&arena);
  model::CommStats comm;
  const std::vector<util::BitString> sketches =
      model::collect_sketches(g, protocol, coins, comm, &pool);
  rec.decode_ms = time_decode(protocol, g.num_vertices(), sketches, coins,
                              trials);
  rec.identical = rec.unpooled.fingerprint == rec.pooled.fingerprint;
  rec.zero_per_vertex = true;  // not gated for full runs
  return rec;
}

double sketches_per_sec(const CaseRecord& rec, const Measured& m) {
  return m.ms > 0.0
             ? static_cast<double>(rec.n * rec.trials) / (m.ms / 1000.0)
             : 0.0;
}

void write_json(const std::string& path,
                const std::vector<CaseRecord>& records,
                std::size_t pool_threads) {
  std::ofstream out(path);
  out << "{\n  \"pool_threads\": " << pool_threads
      << ",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const CaseRecord& r = records[i];
    out << "    {\n"
        << "      \"name\": \"" << r.name << "\",\n"
        << "      \"n\": " << r.n << ",\n"
        << "      \"trials\": " << r.trials << ",\n"
        << "      \"unpooled_ms\": " << r.unpooled.ms << ",\n"
        << "      \"pooled_ms\": " << r.pooled.ms << ",\n"
        << "      \"unpooled_sketches_per_sec\": "
        << sketches_per_sec(r, r.unpooled) << ",\n"
        << "      \"pooled_sketches_per_sec\": "
        << sketches_per_sec(r, r.pooled) << ",\n"
        << "      \"unpooled_allocs_per_trial\": "
        << r.unpooled.allocs_per_trial << ",\n"
        << "      \"pooled_allocs_per_trial\": "
        << r.pooled.allocs_per_trial << ",\n"
        << "      \"bytes_per_trial\": " << r.bytes_per_trial << ",\n"
        << "      \"encode_mb_per_sec\": "
        << mb_per_sec(r.bytes_per_trial, r.trials, r.pooled.ms) << ",\n"
        << "      \"decode_mb_per_sec\": "
        << mb_per_sec(r.bytes_per_trial, r.trials, r.decode_ms) << ",\n"
        << "      \"encode_bytes_per_cycle\": " << bytes_per_cycle(r)
        << ",\n"
        << "      \"identical\": " << (r.identical ? "true" : "false")
        << ",\n"
        << "      \"steady_state_zero_per_vertex\": "
        << (r.zero_per_vertex ? "true" : "false") << "\n    }"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

/// Pull `"encode_mb_per_sec": <num>` for a named case out of a committed
/// BENCH_engine.json with a plain string scan (no JSON library in tree).
/// Returns a negative value if the case or field is absent — the gate
/// then warns and skips rather than failing on a stale baseline format.
double baseline_encode_mb(const std::string& json, const std::string& name) {
  const std::string needle = "\"name\": \"" + name + "\"";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return -1.0;
  const std::string field = "\"encode_mb_per_sec\": ";
  const std::size_t f = json.find(field, at);
  // Stay inside this case object: the field must precede the next case.
  const std::size_t next = json.find("\"name\": \"", at + needle.size());
  if (f == std::string::npos || (next != std::string::npos && f > next)) {
    return -1.0;
  }
  return std::atof(json.c_str() + f + field.size());
}

/// The CI no-regression gate: every case present in the baseline must
/// retain at least `kKeepFraction` of its committed encode MB/s.
bool check_baseline(const std::string& path,
                    const std::vector<CaseRecord>& records) {
  constexpr double kKeepFraction = 0.8;
  std::ifstream in(path);
  if (!in) {
    std::cerr << "bench_engine: cannot read baseline " << path << "\n";
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  bool ok = true;
  for (const CaseRecord& r : records) {
    const double base = baseline_encode_mb(json, r.name);
    if (base <= 0.0) {
      std::cout << "[gate] " << r.name
                << ": baseline lacks encode_mb_per_sec, skipping\n";
      continue;
    }
    const double now = mb_per_sec(r.bytes_per_trial, r.trials, r.pooled.ms);
    const bool pass = now >= kKeepFraction * base;
    std::cout << "[gate] " << r.name << ": encode " << now
              << " MB/s vs baseline " << base << " MB/s -> "
              << (pass ? "ok" : "REGRESSION") << "\n";
    ok &= pass;
  }
  return ok;
}

int run(const std::string& out_path, bool quick,
        const std::string& baseline_path) {
  parallel::ThreadPool& pool = parallel::global_pool();
  std::vector<CaseRecord> records;
  // --quick shrinks trial counts (the CI gate budget); throughput figures
  // get noisier but stay well inside the 20% regression margin.
  const auto trials = [quick](std::size_t full) {
    return quick ? (full + 4) / 5 : full;
  };

  {
    util::Rng rng(7);
    const graph::Graph g = graph::gnp(192, 0.08, rng);
    records.push_back(encode_case("encode/agm-spanning-forest-192", g,
                                  protocols::AgmSpanningForest{}, 11,
                                  trials(10), pool, /*gate_allocs=*/true));
  }
  {
    util::Rng rng(9);
    const graph::Graph g = graph::gnp(1024, 0.02, rng);
    records.push_back(encode_case("encode/trivial-mis-1024", g,
                                  protocols::TrivialMis{}, 12, trials(40),
                                  pool, /*gate_allocs=*/true));
  }
  {
    util::Rng rng(13);
    const graph::Graph g = graph::gnp(160, 0.1, rng);
    records.push_back(full_run_case("run/agm-spanning-forest-160", g,
                                    protocols::AgmSpanningForest{}, 13,
                                    trials(8), pool));
  }

  bool ok = true;
  bool unmeasured = false;
  for (const CaseRecord& r : records) {
    std::cout << "[" << r.name << "] n=" << r.n << " trials=" << r.trials
              << " unpooled=" << r.unpooled.ms << "ms ("
              << r.unpooled.allocs_per_trial << " allocs/trial) pooled="
              << r.pooled.ms << "ms (" << r.pooled.allocs_per_trial
              << " allocs/trial) encode="
              << mb_per_sec(r.bytes_per_trial, r.trials, r.pooled.ms)
              << "MB/s decode="
              << mb_per_sec(r.bytes_per_trial, r.trials, r.decode_ms)
              << "MB/s " << bytes_per_cycle(r)
              << "B/cyc identical=" << (r.identical ? "yes" : "NO") << "\n";
    ok &= r.identical;
    if (r.gate_allocs) ok &= r.zero_per_vertex;
    if (mb_per_sec(r.bytes_per_trial, r.trials, r.decode_ms) <= 0.0) {
      std::cerr << "bench_engine: " << r.name
                << " reports no decode rate (decode unmeasured)\n";
      unmeasured = true;
    }
  }
  write_json(out_path, records, pool.num_threads());
  if (!ok) {
    std::cerr << "bench_engine: pooled run diverged or still allocates "
                 "per vertex in steady state\n";
    return 1;
  }
  if (unmeasured) return 1;
  if (!baseline_path.empty() && !check_baseline(baseline_path, records)) {
    std::cerr << "bench_engine: encode throughput regressed vs "
              << baseline_path << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ds

int main(int argc, char** argv) {
  std::string out = "BENCH_engine.json";
  std::string baseline;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline = argv[++i];
    } else {
      out = arg;
    }
  }
  return ds::run(out, quick, baseline);
}
