// src/obs contract tests: gate semantics, counter/histogram arithmetic,
// registry identity, snapshot/JSON export, span recording, and — run
// under TSan in CI — concurrent updates from many threads and from the
// thread pool's instrumentation.
//
// obs state is process-global, so every test pins the gates it needs and
// calls obs::reset() up front rather than assuming a fresh registry.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "parallel/thread_pool.h"

namespace ds {
namespace {

/// Pin the gates for one test and restore defaults afterwards.
class ObsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_metrics_enabled(true);
    obs::set_trace_enabled(false);
    obs::reset();
  }
  void TearDown() override {
    obs::set_metrics_enabled(false);
    obs::set_trace_enabled(false);
  }
};

using ObsCounter = ObsFixture;
using ObsHistogram = ObsFixture;
using ObsRegistry = ObsFixture;
using ObsSnapshot = ObsFixture;
using ObsSpan = ObsFixture;
using ObsConcurrency = ObsFixture;
using ObsPool = ObsFixture;

TEST_F(ObsCounter, AddAndIncrementAccumulate) {
  obs::Counter& c = obs::counter("test.counter.basic");
  EXPECT_EQ(c.value(), 0u);
  c.increment();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST_F(ObsCounter, DisabledGateDropsUpdates) {
  obs::Counter& c = obs::counter("test.counter.gated");
  obs::set_metrics_enabled(false);
  c.add(1000);
  EXPECT_EQ(c.value(), 0u);
  obs::set_metrics_enabled(true);
  c.add(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST_F(ObsHistogram, TracksCountSumMinMax) {
  obs::Histogram& h = obs::histogram("test.hist.basic");
  h.record(5);
  h.record(100);
  h.record(3);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 108u);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 100u);
}

TEST_F(ObsHistogram, EmptyHistogramReadsZero) {
  obs::Histogram& h = obs::histogram("test.hist.empty");
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.quantile_bound(0.5), 0u);
}

TEST_F(ObsHistogram, BucketsAreLog2ByBitWidth) {
  obs::Histogram& h = obs::histogram("test.hist.buckets");
  h.record(0);   // bit_width 0 -> bucket 0
  h.record(1);   // bit_width 1 -> bucket 1
  h.record(7);   // bit_width 3 -> bucket 3
  h.record(8);   // bit_width 4 -> bucket 4
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.bucket(4), 1u);
  EXPECT_EQ(h.bucket(2), 0u);
}

TEST_F(ObsHistogram, QuantileBoundIsBucketUpperBound) {
  obs::Histogram& h = obs::histogram("test.hist.quantile");
  for (int i = 0; i < 99; ++i) h.record(3);     // bucket 2, bound 3
  h.record(1000);                               // bucket 10, bound 1023
  EXPECT_EQ(h.quantile_bound(0.50), 3u);
  EXPECT_EQ(h.quantile_bound(1.0), 1023u);
}

TEST_F(ObsHistogram, ExtremeValuesLandInDefinedBuckets) {
  // Value 0 has bit_width 0 -> bucket 0 (a defined bucket, not a crash
  // or an underflow); values >= 2^63 clamp into the top bucket.
  obs::Histogram& h = obs::histogram("test.hist.extremes");
  h.record(0);
  h.record(std::uint64_t{1} << 63);
  h.record(UINT64_MAX);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(obs::kHistogramBuckets - 1), 2u);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), UINT64_MAX);
  // Every recorded value landed in exactly one bucket.
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < obs::kHistogramBuckets; ++b) {
    total += h.bucket(b);
  }
  EXPECT_EQ(total, h.count());
}

TEST_F(ObsHistogram, TopBucketQuantileBoundIsMaxRepresentable) {
  // The top bucket is a clamp for everything >= 2^63, so its reported
  // upper bound must be UINT64_MAX — (1 << 63) - 1 would understate the
  // range actually covered.  Regression for the quantile/snapshot bound.
  obs::Histogram& h = obs::histogram("test.hist.topbucket");
  h.record(UINT64_MAX);
  h.record(UINT64_MAX - 1);
  EXPECT_EQ(h.quantile_bound(0.5), UINT64_MAX);
  EXPECT_EQ(h.quantile_bound(1.0), UINT64_MAX);
}

TEST_F(ObsRegistry, SameNameSameInstrument) {
  obs::Counter& a = obs::counter("test.registry.shared");
  obs::Counter& b = obs::counter("test.registry.shared");
  EXPECT_EQ(&a, &b);
  obs::Histogram& ha = obs::histogram("test.registry.shared_hist");
  obs::Histogram& hb = obs::histogram("test.registry.shared_hist");
  EXPECT_EQ(&ha, &hb);
}

TEST_F(ObsRegistry, ResetZeroesWithoutInvalidatingReferences) {
  obs::Counter& c = obs::counter("test.registry.reset");
  obs::Histogram& h = obs::histogram("test.registry.reset_hist");
  c.add(9);
  h.record(9);
  obs::reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  c.add(2);  // the cached reference still feeds the registry
  EXPECT_EQ(obs::counter("test.registry.reset").value(), 2u);
}

TEST_F(ObsSnapshot, CarriesCountersAndHistograms) {
  obs::counter("test.snapshot.c").add(5);
  obs::histogram("test.snapshot.h").record(17);
  const obs::Snapshot snap = obs::snapshot();
  EXPECT_TRUE(snap.metrics_on);

  bool saw_counter = false;
  for (const obs::CounterView& c : snap.counters) {
    if (c.name == "test.snapshot.c") {
      saw_counter = true;
      EXPECT_EQ(c.value, 5u);
    }
  }
  EXPECT_TRUE(saw_counter);

  bool saw_hist = false;
  for (const obs::HistogramView& h : snap.histograms) {
    if (h.name == "test.snapshot.h") {
      saw_hist = true;
      EXPECT_EQ(h.count, 1u);
      EXPECT_EQ(h.sum, 17u);
      ASSERT_EQ(h.buckets.size(), 1u);
      EXPECT_EQ(h.buckets[0].first, 31u);  // bit_width(17)=5 -> bound 2^5-1
      EXPECT_EQ(h.buckets[0].second, 1u);
    }
  }
  EXPECT_TRUE(saw_hist);
}

TEST_F(ObsSnapshot, JsonNamesTheInstruments) {
  obs::counter("test.json.counter").add(3);
  obs::histogram("test.json.hist").record(12);
  const std::string json = obs::snapshot_json();
  EXPECT_NE(json.find("\"metrics_enabled\": true"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
}

TEST_F(ObsSnapshot, SummaryLineListsNonzeroCountersOnly) {
  obs::counter("test.summary.hot").add(4);
  (void)obs::counter("test.summary.cold");  // registered, stays zero
  const std::string line = obs::summary_line();
  EXPECT_NE(line.find("test.summary.hot=4"), std::string::npos);
  EXPECT_EQ(line.find("test.summary.cold"), std::string::npos);
}

TEST_F(ObsSpan, RecordsDurationIntoHistogram) {
  obs::Histogram& h = obs::histogram("test.span.us");
  {
    const obs::ScopedSpan span("test.span", &h);
  }
  EXPECT_EQ(h.count(), 1u);
}

TEST_F(ObsSpan, TracingCapturesRecentSpans) {
  obs::set_trace_enabled(true);
  {
    const obs::ScopedSpan span("test.span.traced");
  }
  const obs::Snapshot snap = obs::snapshot();
  bool saw_event = false;
  for (const obs::SpanEvent& e : snap.recent_spans) {
    saw_event |= e.name == "test.span.traced";
  }
  EXPECT_TRUE(saw_event);
  bool saw_aggregate = false;
  for (const obs::SpanView& s : snap.spans) {
    if (s.name == "test.span.traced") {
      saw_aggregate = true;
      EXPECT_EQ(s.count, 1u);
    }
  }
  EXPECT_TRUE(saw_aggregate);
}

TEST_F(ObsSpan, BothGatesOffRecordsNothing) {
  obs::set_metrics_enabled(false);
  obs::Histogram& h = obs::histogram("test.span.off");
  {
    const obs::ScopedSpan span("test.span.off", &h);
  }
  obs::set_metrics_enabled(true);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(obs::snapshot().recent_spans.empty());
}

TEST_F(ObsConcurrency, CountersAreExactUnderContention) {
  obs::Counter& c = obs::counter("test.concurrent.counter");
  obs::Histogram& h = obs::histogram("test.concurrent.hist");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.increment();
        h.record(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.sum(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(ObsConcurrency, TracedSpansFromManyThreadsStayBounded) {
  obs::set_trace_enabled(true);
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 200; ++i) {
        const obs::ScopedSpan span("test.concurrent.span");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const obs::Snapshot snap = obs::snapshot();
  EXPECT_LE(snap.recent_spans.size(), 256u);  // the ring stays bounded
  for (const obs::SpanView& s : snap.spans) {
    if (s.name == "test.concurrent.span") {
      EXPECT_EQ(s.count, 800u);
    }
  }
}

TEST_F(ObsPool, PoolCountersAdvanceAndSplitByLane) {
  parallel::ThreadPool pool(4);
  obs::Counter& chunks = obs::counter("parallel.chunks");
  obs::Counter& submitter = obs::counter("parallel.submitter_chunks");
  obs::Counter& workers = obs::counter("parallel.worker_chunks");
  obs::Counter& jobs = obs::counter("parallel.jobs");

  std::vector<int> out(1000, 0);
  pool.parallel_for(0, out.size(),
                    [&](std::size_t i) { out[i] = static_cast<int>(i); });

  EXPECT_EQ(jobs.value(), 1u);
  EXPECT_EQ(chunks.value(), parallel::ThreadPool::chunk_count(out.size()));
  // Every chunk is claimed by exactly one lane; the split must add up.
  EXPECT_EQ(submitter.value() + workers.value(), chunks.value());
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<int>(i));
  }
}

TEST_F(ObsPool, SerialPathCountsInlineLoops) {
  parallel::ThreadPool pool(1);
  obs::Counter& inline_loops = obs::counter("parallel.inline_loops");
  obs::Counter& jobs = obs::counter("parallel.jobs");
  int sum = 0;
  pool.parallel_for(0, 10, [&](std::size_t i) {
    sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum, 45);
  EXPECT_EQ(inline_loops.value(), 1u);
  EXPECT_EQ(jobs.value(), 0u);  // never entered the queued path
}

TEST_F(ObsPool, MetricsDoNotPerturbReduction) {
  // The determinism contract with instrumentation live: metrics on and
  // off produce identical reductions at identical chunking.
  const auto run = [](parallel::ThreadPool& pool) {
    return pool.parallel_reduce(
        std::size_t{0}, std::size_t{777}, std::uint64_t{0},
        [](std::uint64_t& acc, std::size_t i) {
          acc = acc * 31 + i;  // order-sensitive fold
        },
        [](std::uint64_t& into, std::uint64_t from) {
          into = into * 17 + from;
        });
  };
  parallel::ThreadPool pool(4);
  const std::uint64_t with_metrics = run(pool);
  obs::set_metrics_enabled(false);
  const std::uint64_t without_metrics = run(pool);
  obs::set_metrics_enabled(true);
  EXPECT_EQ(with_metrics, without_metrics);
}

}  // namespace
}  // namespace ds
