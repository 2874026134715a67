// The stream ingestion driver: batches from any UpdateSource, sharded
// across the deterministic thread pool by owner vertex, with interleaved
// connectivity queries against the live sketch state.
//
// How parallel ingestion stays bit-identical to the serial
// DynamicConnectivity::apply path (docs/STREAMING.md):
//
//   * an update {u, v} splits into two half-edges, one owned by each
//     endpoint; shard s owns a fixed contiguous vertex range (the same
//     partition arithmetic as ThreadPool::chunk_bounds, a function of n
//     only — never of the thread count);
//   * each batch is bucketed by owner shard in stream order on the
//     driver thread (the get_desired_updates_per_batch idiom from
//     GraphStreamingCC: group deltas per vertex before touching
//     sketches), then the buckets run under one parallel_for — every
//     sketch word is written by exactly one shard;
//   * sketch updates are field additions, which commute and associate
//     exactly (no floating point), so any bucket interleave lands the
//     same words the serial order does.  The equivalence suite
//     (tests/streamio/ingestor_test.cpp) audits the hash anyway.
//
// Queries never stall ingestion beyond the snapshot copy: the sketch
// state is copied on the driver thread, and the Boruvka decode runs on
// a background thread while ingestion continues.  The decode reads the
// snapshot in place (DynamicConnectivity::query_forest makes no copy of
// its own), so bounding it to one in-flight snapshot keeps memory at 2x
// state.
#pragma once

#include <cstdint>
#include <vector>

#include "parallel/thread_pool.h"
#include "streamio/binary_stream.h"

namespace ds::streamio {

struct IngestOptions {
  /// Updates pulled from the source per batch (the bucketing window);
  /// at least 1.
  std::size_t batch_updates = std::size_t{1} << 16;
  /// Take a components snapshot every `query_interval` updates, at
  /// batch granularity (first batch boundary past each multiple).
  /// 0 disables interleaved queries.
  std::uint64_t query_interval = 0;
  /// Pool for the sharded apply; null means the global pool.
  parallel::ThreadPool* pool = nullptr;
  /// True: bypass sharding entirely and run the plain serial
  /// DynamicConnectivity::apply loop (the audit baseline).
  bool serial = false;
};

struct QuerySnapshot {
  std::uint64_t after_updates = 0;  // stream position of the snapshot
  std::uint32_t components = 0;
  double decode_ms = 0.0;
};

struct IngestReport {
  std::uint64_t updates = 0;
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t batches = 0;
  std::uint64_t bytes_read = 0;
  std::vector<QuerySnapshot> snapshots;
  double wall_ms = 0.0;
  /// kEnd on a clean drain; any other value is the source's latched
  /// error and ingestion stopped at the last fully-applied batch.
  ReadStatus status = ReadStatus::kEnd;

  [[nodiscard]] double updates_per_sec() const noexcept {
    return wall_ms > 0.0 ? static_cast<double>(updates) / (wall_ms / 1e3)
                         : 0.0;
  }
};

/// Drain `source` into `state`.  Requires source.num_vertices() ==
/// state.num_vertices().  Throws std::invalid_argument if
/// options.batch_updates is 0: a batch holds at least one update.
[[nodiscard]] IngestReport ingest(UpdateSource& source,
                                  stream::DynamicConnectivity& state,
                                  const IngestOptions& options = {});

/// The fixed vertex partition driving the sharded apply: shard count
/// and owner are functions of n alone, mirroring ThreadPool's
/// chunk_count/chunk_bounds split (asserted in ingestor_test.cpp).
[[nodiscard]] std::size_t ingest_shard_count(graph::Vertex n) noexcept;
[[nodiscard]] std::size_t ingest_shard_of(graph::Vertex n,
                                          std::size_t shards,
                                          graph::Vertex v) noexcept;

}  // namespace ds::streamio
