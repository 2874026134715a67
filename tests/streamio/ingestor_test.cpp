// The stream-ingestion equivalence audit (the engine-equivalence idiom
// of docs/PARALLELISM.md applied to src/streamio/): pooled sharded
// ingestion must land bit-identical sketch state — same state_hash,
// same query answers — as the serial DynamicConnectivity::apply loop,
// at every thread count, for every batch size, with metrics on or off.
#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <vector>

#include "graph/connectivity.h"
#include "graph/generators.h"
#include "obs/obs.h"
#include "parallel/thread_pool.h"
#include "streamio/generator_stream.h"
#include "streamio/ingestor.h"

namespace ds::streamio {
namespace {

using graph::Graph;
using graph::Vertex;
using stream::EdgeUpdate;

constexpr std::uint64_t kSketchSeed = 2024;

std::vector<EdgeUpdate> sample_updates(Vertex n, std::uint64_t edges,
                                       std::uint64_t seed) {
  GeneratorConfig config;
  config.family = Family::kRmat;
  config.n = n;
  config.edges = edges;
  config.delete_fraction = 0.25;
  config.seed = seed;
  GeneratorStream source(config);
  std::vector<EdgeUpdate> all;
  std::vector<EdgeUpdate> buf(4096);
  for (;;) {
    const std::size_t got = source.next_batch(buf);
    if (got == 0) break;
    all.insert(all.end(), buf.begin(),
               buf.begin() + static_cast<std::ptrdiff_t>(got));
  }
  return all;
}

stream::DynamicConnectivity serial_reference(
    Vertex n, const std::vector<EdgeUpdate>& updates) {
  stream::DynamicConnectivity state(n, kSketchSeed);
  for (const EdgeUpdate& u : updates) state.apply(u);
  return state;
}

TEST(StreamIngestEquivalence, ShardPartitionMatchesThreadPoolChunks) {
  for (const Vertex n : {Vertex{2}, Vertex{17}, Vertex{64}, Vertex{65},
                         Vertex{1000}, Vertex{1u << 20}}) {
    const std::size_t shards = ingest_shard_count(n);
    EXPECT_EQ(shards, parallel::ThreadPool::chunk_count(n));
    for (std::size_t s = 0; s < shards; ++s) {
      const auto [lo, hi] =
          parallel::ThreadPool::chunk_bounds(n, shards, s);
      EXPECT_EQ(ingest_shard_of(n, shards, static_cast<Vertex>(lo)), s);
      EXPECT_EQ(ingest_shard_of(n, shards, static_cast<Vertex>(hi - 1)),
                s);
    }
  }
}

TEST(StreamIngestEquivalence, PooledMatchesSerialAtEveryThreadCount) {
  constexpr Vertex kN = 300;
  const auto updates = sample_updates(kN, 2000, /*seed=*/7);
  const auto reference = serial_reference(kN, updates);
  const std::uint64_t want_hash = reference.state_hash();
  const std::uint32_t want_components = reference.query_components();

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    parallel::configured_threads()}) {
    parallel::ThreadPool pool(threads);
    stream::DynamicConnectivity state(kN, kSketchSeed);
    MemorySource source(kN, updates);
    const IngestReport report =
        ingest(source, state, {.batch_updates = 256, .pool = &pool});
    EXPECT_EQ(report.status, ReadStatus::kEnd);
    EXPECT_EQ(report.updates, updates.size());
    EXPECT_EQ(state.state_hash(), want_hash) << threads << " threads";
    EXPECT_EQ(state.query_components(), want_components)
        << threads << " threads";
  }
}

TEST(StreamIngestEquivalence, BatchSizeDoesNotChangeFinalState) {
  constexpr Vertex kN = 150;
  const auto updates = sample_updates(kN, 1200, /*seed=*/8);
  const std::uint64_t want = serial_reference(kN, updates).state_hash();
  parallel::ThreadPool pool(3);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{37},
                                  std::size_t{512}, std::size_t{100000}}) {
    stream::DynamicConnectivity state(kN, kSketchSeed);
    MemorySource source(kN, updates);
    const IngestReport report =
        ingest(source, state, {.batch_updates = batch, .pool = &pool});
    EXPECT_EQ(report.updates, updates.size());
    EXPECT_EQ(state.state_hash(), want) << "batch=" << batch;
  }
}

TEST(StreamIngest, EmptyBatchIsRefusedBeforeAnyUpdate) {
  // A batch of 0 updates would end the drain at once and report a clean
  // kEnd over nothing.
  constexpr Vertex kN = 64;
  const auto updates = sample_updates(kN, 256, /*seed=*/5);
  stream::DynamicConnectivity state(kN, kSketchSeed);
  const std::uint64_t untouched = state.state_hash();
  MemorySource source(kN, updates);
  EXPECT_THROW((void)ingest(source, state, {.batch_updates = 0}),
               std::invalid_argument);
  EXPECT_EQ(state.state_hash(), untouched);
}

TEST(StreamIngest, SourceErrorWithASnapshotInFlightPropagates) {
  // The source throws while a snapshot decode may still be running on
  // its background thread: the exception must reach the caller, and
  // the thread must be joined, not destroyed running.
  class ThrowingSource final : public UpdateSource {
   public:
    [[nodiscard]] Vertex num_vertices() const noexcept override {
      return 1024;
    }
    [[nodiscard]] std::size_t next_batch(
        std::span<EdgeUpdate> out) override {
      if (++calls_ == 3) throw std::runtime_error("source failed");
      out[0] = {{0, static_cast<Vertex>(calls_)}, true};
      return 1;
    }

   private:
    int calls_ = 0;
  };
  stream::DynamicConnectivity state(1024, kSketchSeed);
  ThrowingSource source;
  EXPECT_THROW((void)ingest(source, state,
                            {.batch_updates = 1, .query_interval = 1,
                             .serial = true}),
               std::runtime_error);
}

TEST(StreamIngestEquivalence, SerialIngestOptionMatchesDirectApply) {
  constexpr Vertex kN = 100;
  const auto updates = sample_updates(kN, 900, /*seed=*/9);
  stream::DynamicConnectivity state(kN, kSketchSeed);
  MemorySource source(kN, updates);
  const IngestReport report = ingest(source, state, {.serial = true});
  EXPECT_EQ(report.updates, updates.size());
  EXPECT_EQ(state.state_hash(),
            serial_reference(kN, updates).state_hash());
  EXPECT_EQ(report.inserts + report.deletes, report.updates);
}

TEST(StreamIngestEquivalence, InterleavedQueriesObserveTheLiveState) {
  // Build a path insert-only so every prefix has a known component
  // count, and snapshot every 64 updates.
  constexpr Vertex kN = 256;
  std::vector<EdgeUpdate> updates;
  for (Vertex v = 0; v + 1 < kN; ++v) {
    updates.push_back({{v, static_cast<Vertex>(v + 1)}, true});
  }
  stream::DynamicConnectivity state(kN, kSketchSeed);
  MemorySource source(kN, updates);
  const IngestReport report =
      ingest(source, state,
             {.batch_updates = 64, .query_interval = 64, .serial = true});
  ASSERT_FALSE(report.snapshots.empty());
  for (const QuerySnapshot& snap : report.snapshots) {
    // After k path-edge inserts the graph has n - k components.
    EXPECT_EQ(snap.components, kN - snap.after_updates)
        << "at " << snap.after_updates;
  }
  // Snapshots never perturb the live state.
  EXPECT_EQ(state.state_hash(),
            serial_reference(kN, updates).state_hash());
}

TEST(StreamIngestEquivalence, SyncAndAsyncSnapshotsAgree) {
  // Each snapshot, decoded on the background thread, must agree with a
  // serial twin replayed to the snapshot's position and queried inline.
  constexpr Vertex kN = 128;
  const auto updates = sample_updates(kN, 600, /*seed=*/10);
  stream::DynamicConnectivity state(kN, kSketchSeed);
  MemorySource source(kN, updates);
  const IngestReport report =
      ingest(source, state,
             {.batch_updates = 100, .query_interval = 200, .serial = true});
  ASSERT_FALSE(report.snapshots.empty());
  stream::DynamicConnectivity twin(kN, kSketchSeed);
  std::size_t applied = 0;
  for (const QuerySnapshot& snap : report.snapshots) {
    ASSERT_LE(snap.after_updates, updates.size());
    for (; applied < snap.after_updates; ++applied) {
      twin.apply(updates[applied]);
    }
    EXPECT_EQ(snap.components, twin.query_components())
        << "at " << snap.after_updates;
  }
}

TEST(StreamIngestEquivalence, MetricsOffIngestionIsBitIdentical) {
  // Satellite of the obs design rule: instruments must never feed back
  // into results (docs/OBSERVABILITY.md).
  constexpr Vertex kN = 120;
  const auto updates = sample_updates(kN, 800, /*seed=*/11);
  parallel::ThreadPool pool(2);
  auto run = [&] {
    stream::DynamicConnectivity state(kN, kSketchSeed);
    MemorySource source(kN, updates);
    (void)ingest(source, state,
                 {.batch_updates = 128, .query_interval = 300,
                  .pool = &pool});
    return state.state_hash();
  };
  obs::set_metrics_enabled(false);
  const std::uint64_t off = run();
  obs::set_metrics_enabled(true);
  const std::uint64_t on = run();
  obs::set_metrics_enabled(false);
  EXPECT_EQ(off, on);
}

TEST(StreamIngestEquivalence, CountersAccountExactly) {
  constexpr Vertex kN = 90;
  const auto updates = sample_updates(kN, 500, /*seed=*/12);
  obs::set_metrics_enabled(true);
  obs::reset();
  stream::DynamicConnectivity state(kN, kSketchSeed);
  MemorySource source(kN, updates);
  const IngestReport report =
      ingest(source, state, {.batch_updates = 64, .serial = true});
  obs::set_metrics_enabled(false);
  EXPECT_EQ(obs::counter("stream.ingest.updates").value(), report.updates);
  EXPECT_EQ(obs::counter("stream.ingest.inserts").value(), report.inserts);
  EXPECT_EQ(obs::counter("stream.ingest.deletes").value(), report.deletes);
  EXPECT_EQ(obs::counter("stream.ingest.batches").value(), report.batches);
  obs::reset();
}

TEST(StreamIngestEquivalence, RoundsKnobShrinksStateButKeepsEquality) {
  constexpr Vertex kN = 200;
  const auto updates = sample_updates(kN, 1000, /*seed=*/13);
  stream::DynamicConnectivity full(kN, kSketchSeed);
  stream::DynamicConnectivity compact(kN, kSketchSeed, /*rounds=*/2);
  EXPECT_LT(compact.state_bits(), full.state_bits());
  EXPECT_EQ(compact.rounds(), 2u);

  parallel::ThreadPool pool(4);
  stream::DynamicConnectivity compact_pooled(kN, kSketchSeed, 2);
  {
    MemorySource source(kN, updates);
    (void)ingest(source, compact_pooled, {.pool = &pool});
  }
  for (const EdgeUpdate& u : updates) compact.apply(u);
  EXPECT_EQ(compact_pooled.state_hash(), compact.state_hash());
  EXPECT_EQ(compact_pooled.query_components(), compact.query_components());
}

}  // namespace
}  // namespace ds::streamio
