// stream-rmat: a turnstile R-MAT stream (15% deletes) replayed into AGM
// connectivity sketches.  setup() materializes the stream; each unit is
// one rep: a fresh DynamicConnectivity, streamio::ingest with a snapshot
// query after each of the first three quarters of the stream (decoded on a
// background thread), then one query_components on the final state.  The
// traced rep makes the same four queries, synchronously.  Writes land
// beside reads on one sketch state whose working set is far larger than
// the caches.
#include <algorithm>
#include <optional>
#include <span>

#include "harness.h"
#include "parallel/thread_pool.h"
#include "stream/dynamic_stream.h"
#include "streamio/generator_stream.h"
#include "streamio/ingestor.h"
#include "util/rng.h"

namespace ds::bench {

namespace {

constexpr unsigned kRounds = 2;
constexpr std::uint64_t kSegments = 4;
constexpr std::uint64_t kStreamTag = 1;
constexpr std::uint64_t kSketchTag = 2;

/// A MemorySource whose reads are spans of their own, so a traced
/// ingest() splits into reading the stream and applying it.
class TracedSource final : public streamio::UpdateSource {
 public:
  TracedSource(graph::Vertex n, std::span<const stream::EdgeUpdate> updates,
               Tracer* tracer)
      : inner_(n, updates), tracer_(tracer) {}

  [[nodiscard]] graph::Vertex num_vertices() const noexcept override {
    return inner_.num_vertices();
  }
  [[nodiscard]] std::size_t next_batch(
      std::span<stream::EdgeUpdate> out) override {
    const Span span(tracer_, "streamio.next_batch");
    return inner_.next_batch(out);
  }
  [[nodiscard]] streamio::ReadStatus status() const noexcept override {
    return inner_.status();
  }

 private:
  streamio::MemorySource inner_;
  Tracer* tracer_;
};

class StreamWorkload final : public Workload {
 public:
  explicit StreamWorkload(const Context& ctx)
      : ctx_(ctx),
        n_(ctx.opt.smoke ? graph::Vertex{1} << 10 : graph::Vertex{1} << 16),
        edges_(ctx.opt.smoke ? 20000 : 1000000),
        sketch_seed_(util::derive_seed(ctx.opt.seed, kSketchTag)) {}

  void setup() override {
    state_.reset();
    updates_ = {};
    streamio::GeneratorConfig config;
    config.family = streamio::Family::kRmat;
    config.n = n_;
    config.edges = edges_;
    config.delete_fraction = 0.15;
    config.seed = util::derive_seed(ctx_.opt.seed, kStreamTag);
    streamio::GeneratorStream source(config);
    std::vector<stream::EdgeUpdate> batch(std::size_t{1} << 15);
    while (const std::size_t got = source.next_batch(batch)) {
      updates_.insert(updates_.end(), batch.begin(),
                      batch.begin() + static_cast<std::ptrdiff_t>(got));
    }
    run_unit(0);
  }

  void run_unit(std::uint64_t index) override {
    state_.reset();
    const std::uint32_t components =
        ctx_.opt.trace ? composed_rep(index, ctx_.tracer_for(index))
                       : public_rep(index);
    if (index == 0) {
      state_bytes_ = static_cast<double>(state_->state_bits()) / 8.0;
      return;
    }
    rep_components_.push_back(components);
  }

  void check(std::vector<std::string>& misses) override {
    if (!state_.has_value() || rep_components_.empty()) {
      misses.push_back("no rep completed");
      return;
    }
    const std::uint64_t hash = state_->state_hash();
    state_.reset();
    // The same stream through the plain serial apply loop.
    stream::DynamicConnectivity twin(n_, sketch_seed_, kRounds);
    streamio::MemorySource source(n_, updates_);
    (void)streamio::ingest(source, twin, {.serial = true});
    if (twin.state_hash() != hash) {
      misses.push_back("final state_hash differs from the serial twin");
    }
    const std::uint32_t want = twin.query_components();
    for (const std::uint32_t got : rep_components_) {
      if (got != want) {
        misses.push_back("a rep counted " + std::to_string(got) +
                         " components; the serial twin " +
                         std::to_string(want));
        break;
      }
    }
  }

  [[nodiscard]] Tally tally() const override {
    return {attempted_, failed_};
  }

  [[nodiscard]] std::vector<Metric> end_to_end(
      double /*loop_seconds*/) const override {
    return {{"latency_ms_p50", percentile(query_ms_, 50), "ms"},
            {"latency_ms_tail", percentile(query_ms_, 75), "ms"},
            {"throughput_per_s",
             static_cast<double>(ingested_) / (ingest_ms_ / 1e3), "1/s"}};
  }

  [[nodiscard]] std::vector<Metric> per_layer(
      const TraceSummary& trace) const override {
    const SpanTotals ingest = trace.get("streamio.ingest");
    const SpanTotals query = trace.get("stream.query");
    const auto segments = static_cast<double>(ingest.count);
    return {{"input_ms",
             trace.get("streamio.next_batch").total_ms / segments, "ms"},
            {"encode_ms", ingest.self_ms / segments, "ms"},
            {"encode_items_per_s",
             static_cast<double>(traced_updates_) / (ingest.self_ms / 1e3),
             "1/s"},
            {"decode_ms", query.mean_ms(), "ms"},
            {"decode_mb_per_s", state_bytes_ / kMB / (query.mean_ms() / 1e3),
             "MB/s"},
            {"sketch_bytes", state_bytes_, "bytes"}};
  }

 private:
  std::uint32_t public_rep(std::uint64_t index) {
    state_.emplace(n_, sketch_seed_, kRounds);
    streamio::MemorySource source(n_, updates_);
    // Snapshots after each of the first kSegments - 1 quarters and never
    // at the end, whatever the stream's length.  ingest() waits for a
    // snapshot taken at the end, which adds ~25% to the rep, so the work
    // per rep would depend on the seed.
    const std::uint64_t interval = updates_.size() / kSegments + 1;
    const streamio::IngestReport report = streamio::ingest(
        source, *state_, {.query_interval = interval, .pool = &ctx_.pool});
    if (index > 0) {
      tally_updates(updates_.size(), report);
      ingest_ms_ += report.wall_ms;
      for (const streamio::QuerySnapshot& q : report.snapshots) {
        query_ms_.push_back(q.decode_ms);
      }
    }
    return state_->query_components();
  }

  /// The same stream fed in kSegments ingest() calls, each followed by a
  /// snapshot copy and a synchronous query on it.
  std::uint32_t composed_rep(std::uint64_t index, Tracer* tracer) {
    const Span root(tracer, "rep", 0, index);
    {
      const Span span(tracer, "stream.state_init");
      state_.emplace(n_, sketch_seed_, kRounds);
    }
    const std::span<const stream::EdgeUpdate> all(updates_);
    const std::size_t segment = (all.size() + kSegments - 1) / kSegments;
    std::uint32_t components = 0;
    for (std::size_t lo = 0; lo < all.size(); lo += segment) {
      const std::size_t fed = std::min(segment, all.size() - lo);
      TracedSource source(n_, all.subspan(lo, fed), tracer);
      streamio::IngestReport report;
      {
        const Span span(tracer, "streamio.ingest");
        report = streamio::ingest(source, *state_, {.pool = &ctx_.pool});
      }
      if (index > 0) tally_updates(fed, report);
      if (tracer != nullptr) traced_updates_ += report.updates;
      std::optional<stream::DynamicConnectivity> copy;
      {
        const Span span(tracer, "stream.snapshot_copy");
        copy.emplace(*state_);
      }
      const Span span(tracer, "stream.query");
      components = copy->query_components();
      copy.reset();
    }
    return components;
  }

  /// An update fed but not applied (the source stopped short of kEnd)
  /// is a failed operation.
  void tally_updates(std::uint64_t fed, const streamio::IngestReport& report) {
    attempted_ += fed;
    failed_ += fed - report.updates;
    ingested_ += report.updates;
  }

  Context ctx_;
  graph::Vertex n_;
  std::uint64_t edges_;
  std::uint64_t sketch_seed_;
  std::vector<stream::EdgeUpdate> updates_;
  std::optional<stream::DynamicConnectivity> state_;
  std::vector<std::uint32_t> rep_components_;
  std::vector<double> query_ms_;
  double ingest_ms_ = 0.0;
  double state_bytes_ = 0.0;
  std::uint64_t ingested_ = 0;
  std::uint64_t traced_updates_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_stream_rmat(const Context& ctx) {
  return std::make_unique<StreamWorkload>(ctx);
}

}  // namespace ds::bench
