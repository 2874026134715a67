// Benchmark-side span tracing for ds_bench's traced runs.
//
// Spans are recorded by the benchmark around each public layer call a
// workload makes (spans inside src/ are a separate concern).  Each span
// carries a name, start, end, its parent span and the trial it belongs
// to.  Spans go into per-thread buffers owned by the Tracer, so
// recording never takes a shared lock after a thread's first span; the
// buffers are read only after every recording thread has joined, to
// summarize per span name and to write one Chrome trace-event JSON file
// (opens in Perfetto or chrome://tracing).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ds::bench {

struct SpanRecord {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0: a root span
  std::uint64_t trial = 0;
};

/// Totals for one span name.  self_ms excludes the part of each span's
/// interval that its child spans cover (children on other threads
/// included; overlapping children count once).
struct SpanTotals {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;

  [[nodiscard]] double mean_ms() const noexcept {
    return count == 0 ? 0.0 : total_ms / static_cast<double>(count);
  }
};

struct TraceSummary {
  std::map<std::string, SpanTotals, std::less<>> by_name;
  double root_wall_ms = 0.0;  // summed over root spans
  double root_self_ms = 0.0;

  /// Totals for `name`; all-zero when no such span was recorded.
  [[nodiscard]] SpanTotals get(const std::string& name) const;
  /// Root self time over root wall time: the share of the traced work
  /// that no layer span accounts for.
  [[nodiscard]] double unattributed_frac() const noexcept {
    return root_wall_ms > 0.0 ? root_self_ms / root_wall_ms : 0.0;
  }
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Both require that no thread is still recording.
  [[nodiscard]] TraceSummary summarize() const;
  void write_chrome_json(std::ostream& out) const;

 private:
  friend class Span;
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<SpanRecord> spans;
  };

  Buffer& local_buffer();

  std::uint64_t epoch_ns_;
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mutex_
};

/// RAII span.  A null tracer records nothing and reads no clock.  By
/// default the parent and trial are those of the innermost open span on
/// this thread; a span whose cause runs on another thread (a trial on a
/// pool lane) names them explicitly.
class Span {
 public:
  Span(Tracer* tracer, const char* name);
  Span(Tracer* tracer, const char* name, std::uint32_t parent,
       std::uint64_t trial);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint32_t id() const noexcept { return rec_.id; }

 private:
  Tracer* tracer_;
  SpanRecord rec_;
  std::uint32_t saved_parent_ = 0;
  std::uint64_t saved_trial_ = 0;
};

[[nodiscard]] std::uint64_t steady_ns() noexcept;

}  // namespace ds::bench
