// Lightweight, deterministic-safe observability: monotonic counters,
// log2-bucketed histograms (latency and message sizes), and span-style
// tracing behind one thread-safe registry.
//
// Design rules (docs/OBSERVABILITY.md):
//
//   * Never on the result path.  Instruments record what happened — bits,
//     bytes, durations, queue depths — and are forbidden from feeding
//     anything back into protocol execution, so bit-identical results at
//     any thread count (docs/PARALLELISM.md) hold with metrics on or off.
//   * Near-zero overhead when disabled.  Every record is gated on one
//     relaxed atomic-bool load (runtime toggles DISTSKETCH_METRICS /
//     DISTSKETCH_TRACE, or the programmatic setters).
//   * TSan-clean.  Counters and histogram cells are relaxed atomics; the
//     registry and the trace ring are mutex-guarded.
//
// Registered objects are immortal: counter()/histogram() hand out
// references that stay valid for the life of the process, and reset()
// zeroes values without invalidating them — call sites may cache the
// reference in a function-local static.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ds::obs {

// ---------------------------------------------------------------------
// Enable gates.
// ---------------------------------------------------------------------
/// True when DISTSKETCH_METRICS is set to a truthy value in the
/// environment, or set_metrics_enabled(true) was called.  One relaxed
/// atomic load — safe (and cheap) on any hot path.
[[nodiscard]] bool metrics_enabled() noexcept;
/// Same gate for span tracing, keyed on DISTSKETCH_TRACE.
[[nodiscard]] bool trace_enabled() noexcept;
void set_metrics_enabled(bool on) noexcept;
void set_trace_enabled(bool on) noexcept;

// ---------------------------------------------------------------------
// Instruments.
// ---------------------------------------------------------------------

/// Monotonic counter.  add() is wait-free (one relaxed fetch_add).
class Counter {
 public:
  void add(std::uint64_t delta) noexcept {
    if (!metrics_enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() noexcept { add(1); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset_value() noexcept {
    value_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

inline constexpr std::size_t kHistogramBuckets = 64;

/// Log2-bucketed histogram: count/sum/min/max plus 64 power-of-two
/// buckets (bucket b holds values with bit_width == b, i.e. upper bound
/// 2^b - 1).  Suited to latencies in microseconds and message sizes in
/// bits or bytes, where relative resolution is what matters.
class Histogram {
 public:
  void record(std::uint64_t value) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// 0 when empty.
  [[nodiscard]] std::uint64_t min() const noexcept;
  [[nodiscard]] std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t b) const noexcept {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  /// Upper bound of the smallest bucket whose cumulative count reaches
  /// quantile q (0 < q <= 1); 0 when empty.
  [[nodiscard]] std::uint64_t quantile_bound(double q) const noexcept;

  void reset_value() noexcept;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
  std::atomic<std::uint64_t> buckets_[kHistogramBuckets] = {};
};

// ---------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------

/// The process-wide counter named `name` (created on first use; the
/// reference stays valid forever).  Dotted lowercase names, grouped by
/// layer: "wire.tcp.bytes_sent", "service.frames_accepted", ...
[[nodiscard]] Counter& counter(std::string_view name);
[[nodiscard]] Histogram& histogram(std::string_view name);

/// Zero every registered counter, histogram, and span aggregate, and
/// drop buffered trace events.  Registered objects stay valid — this is
/// the test/bench reset, not a teardown.
void reset();

// ---------------------------------------------------------------------
// Span tracing.
// ---------------------------------------------------------------------

/// RAII span: when tracing is on, records {name, start, duration,
/// thread} into a bounded ring plus a per-name aggregate; when metrics
/// are on and `duration_us` is given, additionally records the elapsed
/// microseconds into that histogram.  When both gates are off the
/// constructor is two relaxed loads and no clock is read.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name,
                      Histogram* duration_us = nullptr) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  Histogram* duration_us_;
  std::uint64_t start_ns_ = 0;
  bool armed_ = false;
  bool traced_ = false;
};

// ---------------------------------------------------------------------
// Snapshot export.
// ---------------------------------------------------------------------

struct CounterView {
  std::string name;
  std::uint64_t value = 0;
};

struct HistogramView {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::uint64_t p50 = 0;  // bucket upper bounds, not exact order stats
  std::uint64_t p99 = 0;
  /// (bucket upper bound, count) for every non-empty bucket, ascending.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
};

struct SpanView {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
};

struct SpanEvent {
  std::string name;
  std::uint64_t start_us = 0;  // since process observability epoch
  std::uint64_t duration_us = 0;
  std::uint32_t thread = 0;  // stable small hash of the thread id
};

struct Snapshot {
  bool metrics_on = false;
  bool trace_on = false;
  std::vector<CounterView> counters;      // name-sorted
  std::vector<HistogramView> histograms;  // name-sorted
  std::vector<SpanView> spans;            // name-sorted
  std::vector<SpanEvent> recent_spans;    // oldest first, bounded
};

/// Consistent-enough view of everything registered (individual cells are
/// read relaxed; cross-instrument exactness needs quiescence, which the
/// audit test arranges by snapshotting after the session completes).
[[nodiscard]] Snapshot snapshot();

/// The JSON schema documented in docs/OBSERVABILITY.md.  `indent` is
/// prepended to every line so the block can be embedded in a larger
/// document (the BENCH_shard.json metrics block).
void write_json(std::ostream& out, const Snapshot& snap,
                const std::string& indent = "");
[[nodiscard]] std::string snapshot_json();

/// One compact line of every nonzero counter ("a=1 b=2 ..."), for the
/// service's periodic stderr heartbeat.  Empty string when nothing has
/// been recorded.
[[nodiscard]] std::string summary_line();

}  // namespace ds::obs
