#include "obs/obs.h"

#include <bit>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

namespace ds::obs {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

bool env_truthy(const char* value) noexcept {
  return value != nullptr && *value != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

struct Gates {
  std::atomic<bool> metrics;
  std::atomic<bool> trace;
  Gates() {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at first use.
    metrics.store(env_truthy(std::getenv("DISTSKETCH_METRICS")),
                  std::memory_order_relaxed);
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at first use.
    trace.store(env_truthy(std::getenv("DISTSKETCH_TRACE")),
                std::memory_order_relaxed);
  }
};

Gates& gates() noexcept {
  static Gates g;
  return g;
}

struct SpanAggregate {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> total_ns{0};
  std::atomic<std::uint64_t> max_ns{0};
};

constexpr std::size_t kTraceRingCapacity = 256;

/// All registered instruments.  Deliberately leaked (never destroyed):
/// cached references at call sites must outlive every static destructor.
struct Registry {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
  std::map<std::string, std::unique_ptr<SpanAggregate>, std::less<>> spans;

  std::mutex trace_mutex;
  std::deque<SpanEvent> recent;  // bounded by kTraceRingCapacity
  std::uint64_t epoch_ns = now_ns();
};

Registry& registry() noexcept {
  static Registry* r = new Registry;  // NOLINT(cppcoreguidelines-owning-memory)
  return *r;
}

std::uint32_t thread_tag() noexcept {
  const std::size_t h = std::hash<std::thread::id>{}(std::this_thread::get_id());
  return static_cast<std::uint32_t>(h & 0xFFFFu);
}

void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t dur_ns) {
  Registry& reg = registry();
  SpanAggregate* agg = nullptr;
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    std::unique_ptr<SpanAggregate>& slot = reg.spans[std::string(name)];
    if (!slot) slot = std::make_unique<SpanAggregate>();
    agg = slot.get();
  }
  agg->count.fetch_add(1, std::memory_order_relaxed);
  agg->total_ns.fetch_add(dur_ns, std::memory_order_relaxed);
  std::uint64_t seen = agg->max_ns.load(std::memory_order_relaxed);
  while (dur_ns > seen &&
         !agg->max_ns.compare_exchange_weak(seen, dur_ns,
                                            std::memory_order_relaxed)) {
  }

  const std::lock_guard<std::mutex> lock(reg.trace_mutex);
  if (reg.recent.size() >= kTraceRingCapacity) reg.recent.pop_front();
  reg.recent.push_back(SpanEvent{
      std::string(name), (start_ns - reg.epoch_ns) / 1000, dur_ns / 1000,
      thread_tag()});
}

}  // namespace

bool metrics_enabled() noexcept {
  return gates().metrics.load(std::memory_order_relaxed);
}

bool trace_enabled() noexcept {
  return gates().trace.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool on) noexcept {
  gates().metrics.store(on, std::memory_order_relaxed);
}

void set_trace_enabled(bool on) noexcept {
  gates().trace.store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// Histogram.
// ---------------------------------------------------------------------

void Histogram::record(std::uint64_t value) noexcept {
  if (!metrics_enabled()) return;
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
  const std::size_t b = std::min<std::size_t>(
      static_cast<std::size_t>(std::bit_width(value)), kHistogramBuckets - 1);
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Histogram::min() const noexcept {
  const std::uint64_t m = min_.load(std::memory_order_relaxed);
  return m == UINT64_MAX ? 0 : m;
}

std::uint64_t Histogram::quantile_bound(double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  const auto threshold = static_cast<std::uint64_t>(
      q * static_cast<double>(total) + 0.5);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    cumulative += bucket(b);
    if (cumulative >= threshold && cumulative > 0) {
      // Bucket b holds values with bit_width == b, upper bound 2^b - 1.
      // The top bucket is a clamp (record() caps at kHistogramBuckets-1),
      // so its true upper bound is UINT64_MAX, not 2^63 - 1.
      if (b == 0) return 0;
      if (b == kHistogramBuckets - 1) return UINT64_MAX;
      return (std::uint64_t{1} << b) - 1;
    }
  }
  return max();
}

void Histogram::reset_value() noexcept {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (std::atomic<std::uint64_t>& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------

Counter& counter(std::string_view name) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  const auto it = reg.counters.find(name);
  if (it != reg.counters.end()) return *it->second;
  return *reg.counters.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Histogram& histogram(std::string_view name) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  const auto it = reg.histograms.find(name);
  if (it != reg.histograms.end()) return *it->second;
  return *reg.histograms
              .emplace(std::string(name), std::make_unique<Histogram>())
              .first->second;
}

void reset() {
  Registry& reg = registry();
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    for (auto& [name, c] : reg.counters) c->reset_value();
    for (auto& [name, h] : reg.histograms) h->reset_value();
    for (auto& [name, s] : reg.spans) {
      s->count.store(0, std::memory_order_relaxed);
      s->total_ns.store(0, std::memory_order_relaxed);
      s->max_ns.store(0, std::memory_order_relaxed);
    }
  }
  const std::lock_guard<std::mutex> lock(reg.trace_mutex);
  reg.recent.clear();
  reg.epoch_ns = now_ns();
}

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

ScopedSpan::ScopedSpan(const char* name, Histogram* duration_us) noexcept
    : name_(name), duration_us_(duration_us) {
  traced_ = trace_enabled();
  armed_ = traced_ || (metrics_enabled() && duration_us_ != nullptr);
  if (armed_) start_ns_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!armed_) return;
  const std::uint64_t end_ns = now_ns();
  const std::uint64_t dur_ns = end_ns > start_ns_ ? end_ns - start_ns_ : 0;
  if (duration_us_ != nullptr) duration_us_->record(dur_ns / 1000);
  if (traced_) record_span(name_, start_ns_, dur_ns);
}

// ---------------------------------------------------------------------
// Snapshot.
// ---------------------------------------------------------------------

Snapshot snapshot() {
  Snapshot snap;
  snap.metrics_on = metrics_enabled();
  snap.trace_on = trace_enabled();
  Registry& reg = registry();
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto& [name, c] : reg.counters) {
      snap.counters.push_back(CounterView{name, c->value()});
    }
    for (const auto& [name, h] : reg.histograms) {
      HistogramView view;
      view.name = name;
      view.count = h->count();
      view.sum = h->sum();
      view.min = h->min();
      view.max = h->max();
      view.p50 = h->quantile_bound(0.50);
      view.p99 = h->quantile_bound(0.99);
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        const std::uint64_t n = h->bucket(b);
        if (n == 0) continue;
        const std::uint64_t bound =
            b == 0                       ? 0
            : b == kHistogramBuckets - 1 ? UINT64_MAX
                                         : (std::uint64_t{1} << b) - 1;
        view.buckets.emplace_back(bound, n);
      }
      snap.histograms.push_back(std::move(view));
    }
    for (const auto& [name, s] : reg.spans) {
      snap.spans.push_back(SpanView{
          name, s->count.load(std::memory_order_relaxed),
          s->total_ns.load(std::memory_order_relaxed),
          s->max_ns.load(std::memory_order_relaxed)});
    }
  }
  const std::lock_guard<std::mutex> lock(reg.trace_mutex);
  snap.recent_spans.assign(reg.recent.begin(), reg.recent.end());
  return snap;
}

namespace {

void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

void write_json(std::ostream& out, const Snapshot& snap,
                const std::string& indent) {
  const std::string i1 = indent + "  ";
  const std::string i2 = i1 + "  ";
  out << "{\n"
      << i1 << "\"metrics_enabled\": " << (snap.metrics_on ? "true" : "false")
      << ",\n"
      << i1 << "\"trace_enabled\": " << (snap.trace_on ? "true" : "false")
      << ",\n";

  out << i1 << "\"counters\": {";
  for (std::size_t k = 0; k < snap.counters.size(); ++k) {
    out << (k == 0 ? "\n" : ",\n") << i2;
    write_json_string(out, snap.counters[k].name);
    out << ": " << snap.counters[k].value;
  }
  out << (snap.counters.empty() ? "" : "\n" + i1) << "},\n";

  out << i1 << "\"histograms\": {";
  for (std::size_t k = 0; k < snap.histograms.size(); ++k) {
    const HistogramView& h = snap.histograms[k];
    out << (k == 0 ? "\n" : ",\n") << i2;
    write_json_string(out, h.name);
    out << ": {\"count\": " << h.count << ", \"sum\": " << h.sum
        << ", \"min\": " << h.min << ", \"max\": " << h.max
        << ", \"p50\": " << h.p50 << ", \"p99\": " << h.p99
        << ", \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      out << (b == 0 ? "" : ", ") << "[" << h.buckets[b].first << ", "
          << h.buckets[b].second << "]";
    }
    out << "]}";
  }
  out << (snap.histograms.empty() ? "" : "\n" + i1) << "},\n";

  out << i1 << "\"spans\": {";
  for (std::size_t k = 0; k < snap.spans.size(); ++k) {
    const SpanView& s = snap.spans[k];
    out << (k == 0 ? "\n" : ",\n") << i2;
    write_json_string(out, s.name);
    out << ": {\"count\": " << s.count << ", \"total_us\": "
        << s.total_ns / 1000 << ", \"max_us\": " << s.max_ns / 1000 << "}";
  }
  out << (snap.spans.empty() ? "" : "\n" + i1) << "},\n";

  out << i1 << "\"recent_spans\": [";
  for (std::size_t k = 0; k < snap.recent_spans.size(); ++k) {
    const SpanEvent& e = snap.recent_spans[k];
    out << (k == 0 ? "\n" : ",\n") << i2 << "{\"name\": ";
    write_json_string(out, e.name);
    out << ", \"start_us\": " << e.start_us << ", \"duration_us\": "
        << e.duration_us << ", \"thread\": " << e.thread << "}";
  }
  out << (snap.recent_spans.empty() ? "" : "\n" + i1) << "]\n"
      << indent << "}";
}

std::string snapshot_json() {
  std::ostringstream out;
  write_json(out, snapshot());
  out << "\n";
  return out.str();
}

std::string summary_line() {
  const Snapshot snap = snapshot();
  std::ostringstream out;
  bool first = true;
  for (const CounterView& c : snap.counters) {
    if (c.value == 0) continue;
    out << (first ? "" : " ") << c.name << "=" << c.value;
    first = false;
  }
  return out.str();
}

}  // namespace ds::obs
