#include "streamio/ingestor.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/obs.h"

namespace ds::streamio {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// stream.ingest.* counters/histograms (docs/OBSERVABILITY.md).  This
/// file is the single owner of the "stream." series prefix
/// (tools/lint/obs_owners.toml); the obs audit checks metrics-off
/// ingestion is bit-identical (tests/audit/obs_audit_test.cpp).
struct IngestMetrics {
  obs::Counter& updates = obs::counter("stream.ingest.updates");
  obs::Counter& inserts = obs::counter("stream.ingest.inserts");
  obs::Counter& deletes = obs::counter("stream.ingest.deletes");
  obs::Counter& batches = obs::counter("stream.ingest.batches");
  obs::Counter& bytes_read = obs::counter("stream.ingest.bytes_read");
  obs::Counter& snapshots = obs::counter("stream.ingest.snapshots");
  obs::Histogram& batch_us = obs::histogram("stream.ingest.batch_us");
  obs::Histogram& snapshot_us = obs::histogram("stream.ingest.snapshot_us");
};

IngestMetrics& metrics() {
  static IngestMetrics m;
  return m;
}

/// One half of an update, routed to the shard owning vertex `v`.
struct HalfEdge {
  graph::Vertex v;  // owner (the sketch this delta lands in)
  graph::Vertex w;  // other endpoint
  std::int8_t scale;
};

/// At most one snapshot decode runs in the background; joining before
/// starting the next bounds resident state to 2x (live + one copy).
struct PendingSnapshot {
  std::unique_ptr<QuerySnapshot> slot;
  std::thread thread;  // writes *slot

  PendingSnapshot() = default;
  PendingSnapshot(const PendingSnapshot&) = delete;
  PendingSnapshot& operator=(const PendingSnapshot&) = delete;
  /// An exception leaving ingest() mid-decode must not destroy the
  /// thread unjoined, which would end the program.
  ~PendingSnapshot() {
    if (thread.joinable()) thread.join();
  }

  void start(const stream::DynamicConnectivity& state,
             std::uint64_t after_updates) {
    // The copy is the only part that stalls ingestion.
    auto copy = std::make_unique<stream::DynamicConnectivity>(state);
    slot = std::make_unique<QuerySnapshot>();
    slot->after_updates = after_updates;
    QuerySnapshot* out = slot.get();
    thread = std::thread([copy = std::move(copy), out] {
      const auto t0 = Clock::now();
      out->components = copy->query_components();
      out->decode_ms = ms_since(t0);
    });
  }

  void collect(std::vector<QuerySnapshot>& into) {
    if (thread.joinable()) thread.join();
    if (slot) {
      metrics().snapshots.increment();
      metrics().snapshot_us.record(
          static_cast<std::uint64_t>(slot->decode_ms * 1e3));
      into.push_back(*slot);
      slot.reset();
    }
  }
};

}  // namespace

std::size_t ingest_shard_count(graph::Vertex n) noexcept {
  // Mirrors ThreadPool::chunk_count: min(n, 64) fixed shards.
  return n == 0 ? 1 : std::min<std::size_t>(n, 64);
}

std::size_t ingest_shard_of(graph::Vertex n, std::size_t shards,
                            graph::Vertex v) noexcept {
  // The inverse of ThreadPool::chunk_bounds' partition of [0, n): the
  // first `rem` shards own base+1 vertices, the rest own base.
  const std::size_t base = n / shards;
  const std::size_t rem = n % shards;
  const std::size_t boundary = (base + 1) * rem;
  if (v < boundary) return v / (base + 1);
  return rem + (v - boundary) / base;
}

IngestReport ingest(UpdateSource& source,
                    stream::DynamicConnectivity& state,
                    const IngestOptions& options) {
  assert(source.num_vertices() == state.num_vertices());
  if (options.batch_updates == 0) {
    // An empty batch would end the drain at once with a clean status.
    throw std::invalid_argument(
        "streamio::ingest: batch_updates must be at least 1");
  }
  IngestMetrics& m = metrics();
  IngestReport report;

  const graph::Vertex n = state.num_vertices();
  const std::size_t shards = ingest_shard_count(n);
  std::vector<std::vector<HalfEdge>> buckets;
  if (!options.serial) buckets.resize(shards);

  std::vector<stream::EdgeUpdate> batch(options.batch_updates);
  std::uint64_t next_query = options.query_interval > 0
                                 ? options.query_interval
                                 : UINT64_MAX;
  PendingSnapshot pending;
  std::uint64_t bytes_seen = 0;

  const auto start = Clock::now();
  for (;;) {
    const std::size_t got = source.next_batch(batch);
    if (got == 0) break;
    const bool timed = obs::metrics_enabled();
    const auto batch_t0 = timed ? Clock::now() : Clock::time_point{};

    std::uint64_t batch_inserts = 0;
    if (options.serial) {
      for (std::size_t i = 0; i < got; ++i) {
        state.apply(batch[i]);
        if (batch[i].insert) ++batch_inserts;
      }
    } else {
      // Bucket by owner vertex in stream order (driver thread), then
      // apply every bucket under one parallel_for.
      for (std::size_t i = 0; i < got; ++i) {
        const stream::EdgeUpdate& u = batch[i];
        const std::int8_t scale = u.insert ? +1 : -1;
        if (u.insert) ++batch_inserts;
        buckets[ingest_shard_of(n, shards, u.edge.u)].push_back(
            {u.edge.u, u.edge.v, scale});
        buckets[ingest_shard_of(n, shards, u.edge.v)].push_back(
            {u.edge.v, u.edge.u, scale});
      }
      parallel::parallel_for(options.pool, 0, shards, [&](std::size_t s) {
        for (const HalfEdge& h : buckets[s]) {
          state.add_half_edge(h.v, h.w, h.scale);
        }
      });
      for (auto& bucket : buckets) bucket.clear();
    }

    report.updates += got;
    report.inserts += batch_inserts;
    report.deletes += got - batch_inserts;
    ++report.batches;
    m.updates.add(got);
    m.inserts.add(batch_inserts);
    m.deletes.add(got - batch_inserts);
    m.batches.increment();
    const std::uint64_t bytes_now = source.bytes_read();
    m.bytes_read.add(bytes_now - bytes_seen);
    bytes_seen = bytes_now;
    if (timed) {
      m.batch_us.record(static_cast<std::uint64_t>(
          ms_since(batch_t0) * 1e3));
    }

    if (report.updates >= next_query) {
      pending.collect(report.snapshots);
      pending.start(state, report.updates);
      while (next_query <= report.updates) {
        next_query += options.query_interval;
      }
    }
  }
  pending.collect(report.snapshots);

  report.wall_ms = ms_since(start);
  report.bytes_read = bytes_seen;
  report.status = source.status();
  return report;
}

}  // namespace ds::streamio
