#include "trace.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <ostream>
#include <unordered_map>
#include <utility>

namespace ds::bench {

namespace {

// The innermost open span on this thread, inherited by new spans.
thread_local std::uint32_t t_parent = 0;
thread_local std::uint64_t t_trial = 0;

// This thread's buffer, valid while it belongs to t_owner.
thread_local const Tracer* t_owner = nullptr;
thread_local void* t_buffer = nullptr;

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Length of the union of `spans` clipped to [lo, hi).
std::uint64_t covered_ns(std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                             spans,
                         std::uint64_t lo, std::uint64_t hi) {
  std::sort(spans.begin(), spans.end());
  std::uint64_t covered = 0;
  std::uint64_t reach = lo;
  for (const auto& [start, end] : spans) {
    const std::uint64_t s = std::max(start, reach);
    const std::uint64_t e = std::min(end, hi);
    if (e > s) {
      covered += e - s;
      reach = e;
    }
  }
  return covered;
}

}  // namespace

std::uint64_t steady_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SpanTotals TraceSummary::get(const std::string& name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? SpanTotals{} : it->second;
}

Tracer::Tracer() : epoch_ns_(steady_ns()) {}

Tracer::Buffer& Tracer::local_buffer() {
  if (t_owner != this) {
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->thread = static_cast<std::uint32_t>(buffers_.size());
    t_owner = this;
    t_buffer = buffers_.back().get();
  }
  return *static_cast<Buffer*>(t_buffer);
}

Span::Span(Tracer* tracer, const char* name)
    : Span(tracer, name, t_parent, t_trial) {}

Span::Span(Tracer* tracer, const char* name, std::uint32_t parent,
           std::uint64_t trial)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  rec_.name = name;
  rec_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = parent;
  rec_.trial = trial;
  saved_parent_ = t_parent;
  saved_trial_ = t_trial;
  t_parent = rec_.id;
  t_trial = trial;
  rec_.start_ns = steady_ns();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  rec_.end_ns = steady_ns();
  tracer_->local_buffer().spans.push_back(rec_);
  t_parent = saved_parent_;
  t_trial = saved_trial_;
}

TraceSummary Tracer::summarize() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::uint32_t,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& s : buffer->spans) {
      if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  TraceSummary summary;
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& s : buffer->spans) {
      const std::uint64_t wall = s.end_ns - s.start_ns;
      const auto kids = children.find(s.id);
      const std::uint64_t self =
          kids == children.end()
              ? wall
              : wall - covered_ns(kids->second, s.start_ns, s.end_ns);
      SpanTotals& totals = summary.by_name[s.name];
      ++totals.count;
      totals.total_ms += ms(wall);
      totals.self_ms += ms(self);
      if (s.parent == 0) {
        summary.root_wall_ms += ms(wall);
        summary.root_self_ms += ms(self);
      }
    }
  }
  return summary;
}

void Tracer::write_chrome_json(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  out << std::fixed << std::setprecision(3)
      << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  const char* sep = "\n";
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& s : buffer->spans) {
      // Chrome trace timestamps are microseconds; keep ns resolution.
      out << sep << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << buffer->thread
          << ", \"ts\": " << static_cast<double>(s.start_ns - epoch_ns_) / 1e3
          << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"trial\": " << s.trial << "}}";
      sep = ",\n";
    }
  }
  out << "\n]}\n";
}

}  // namespace ds::bench
