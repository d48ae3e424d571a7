// obs — counters, gauges, histograms and the registry: bucket edges,
// percentile error and determinism, and thread-safety of the lock-free
// paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace dspaddr {
namespace {

TEST(Obs, CounterSumsAcrossStripes) {
  obs::Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(Obs, CounterIsExactUnderConcurrency) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAdds; ++i) {
        counter.add();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(Obs, GaugeTracksLevelAndHighWatermark) {
  obs::Gauge gauge;
  gauge.record(3);
  gauge.record(7);
  gauge.record(2);
  EXPECT_EQ(gauge.value(), 2);
  EXPECT_EQ(gauge.max(), 7);
}

/// The bucket a single recorded value lands in.
std::size_t bucket_of(std::uint64_t us) {
  obs::Histogram histogram;
  histogram.record_us(us);
  const obs::HistogramSnapshot snap = histogram.snapshot();
  const auto it = std::find(snap.buckets.begin(), snap.buckets.end(), 1u);
  return static_cast<std::size_t>(it - snap.buckets.begin());
}

TEST(Obs, HistogramBucketEdges) {
  // Values 0..7 get a bucket each; from 8 on, every power of two
  // splits into 8 buckets: [8, 9) .. [15, 16), then [16, 18) ..
  // [30, 32), [32, 36) and so on.
  obs::Histogram histogram;
  histogram.record_us(0);
  histogram.record_us(1);
  histogram.record_us(7);
  histogram.record_us(8);
  histogram.record_us(16);
  histogram.record_us(17);
  histogram.record_us(18);
  const obs::HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 7u);
  EXPECT_EQ(snap.sum_us, 67u);
  EXPECT_EQ(snap.max_us, 18u);
  ASSERT_EQ(snap.buckets.size(), obs::Histogram::kBuckets);
  EXPECT_EQ(obs::Histogram::kBuckets, 241u);
  EXPECT_EQ(snap.buckets[0], 1u);   // 0
  EXPECT_EQ(snap.buckets[1], 1u);   // 1
  EXPECT_EQ(snap.buckets[7], 1u);   // 7
  EXPECT_EQ(snap.buckets[8], 1u);   // [8, 9)
  EXPECT_EQ(snap.buckets[16], 2u);  // [16, 18)
  EXPECT_EQ(snap.buckets[17], 1u);  // [18, 20)
  EXPECT_EQ(obs::HistogramSnapshot::bucket_upper_us(7), 8u);
  EXPECT_EQ(obs::HistogramSnapshot::bucket_upper_us(8), 9u);
  EXPECT_EQ(obs::HistogramSnapshot::bucket_upper_us(16), 18u);
  EXPECT_EQ(obs::HistogramSnapshot::bucket_upper_us(24), 36u);

  // The buckets tile [0, 2^32) in order: each upper edge is the next
  // bucket's first value, and the open last bucket starts at 2^32.
  for (std::size_t i = 0; i + 1 < obs::Histogram::kBuckets; ++i) {
    const std::uint64_t upper = obs::HistogramSnapshot::bucket_upper_us(i);
    EXPECT_EQ(bucket_of(upper - 1), i) << "bucket " << i;
    EXPECT_EQ(bucket_of(upper), i + 1) << "bucket " << i;
  }
  EXPECT_EQ(obs::HistogramSnapshot::bucket_upper_us(
                obs::Histogram::kBuckets - 2),
            std::uint64_t{1} << 32);
}

TEST(Obs, PercentilesOverstateByAtMostOneEighth) {
  // A percentile is its bucket's upper edge: above the true value, by 1
  // µs at most below 8 µs and by at most an eighth of the value from
  // there up to the open last bucket.
  std::vector<std::uint64_t> values;
  for (std::uint64_t v = 0; v < 5000; ++v) values.push_back(v);
  for (std::uint64_t v = 5000; v < (std::uint64_t{1} << 32); v = v * 9 / 8 + 7) {
    values.push_back(v);
    values.push_back(v - 1);
  }
  values.push_back((std::uint64_t{1} << 32) - 1);
  for (const std::uint64_t v : values) {
    obs::Histogram histogram;
    histogram.record_us(v);
    const std::uint64_t reported = histogram.snapshot().percentile_us(50);
    EXPECT_GT(reported, v);
    if (v < 8) {
      EXPECT_EQ(reported, v + 1);
    } else {
      EXPECT_LE(8 * (reported - v), v) << v;
    }
  }
}

TEST(Obs, HistogramHugeValuesLandInTheOpenLastBucket) {
  obs::Histogram histogram;
  histogram.record_us(UINT64_MAX);
  const obs::HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.buckets[obs::Histogram::kBuckets - 1], 1u);
  EXPECT_EQ(snap.max_us, UINT64_MAX);
}

TEST(Obs, PercentilesAreBucketUpperEdgesAndDeterministic) {
  obs::Histogram histogram;
  for (int i = 0; i < 90; ++i) {
    histogram.record_us(3);  // bucket 2: [2, 4), upper edge 4
  }
  for (int i = 0; i < 10; ++i) {
    histogram.record_us(1000);  // bucket 10: [512, 1024), upper edge 1024
  }
  const obs::HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.percentile_us(50), 4u);
  EXPECT_EQ(snap.percentile_us(90), 4u);
  EXPECT_EQ(snap.percentile_us(95), 1024u);
  EXPECT_EQ(snap.percentile_us(99), 1024u);
  // Determinism: equal counts, equal answers — snapshot twice.
  const obs::HistogramSnapshot again = histogram.snapshot();
  EXPECT_EQ(again.percentile_us(95), snap.percentile_us(95));

  obs::Histogram empty;
  EXPECT_EQ(empty.snapshot().percentile_us(99), 0u);
}

TEST(Obs, HistogramConcurrentRecordKeepsTotals) {
  obs::Histogram histogram;
  constexpr int kThreads = 8;
  constexpr int kRecords = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kRecords; ++i) {
        histogram.record_us(static_cast<std::uint64_t>(t + 1));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const obs::HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kRecords);
  std::uint64_t bucketed = 0;
  for (const std::uint64_t bucket : snap.buckets) {
    bucketed += bucket;
  }
  EXPECT_EQ(bucketed, snap.count);
  EXPECT_EQ(snap.max_us, static_cast<std::uint64_t>(kThreads));
}

TEST(Obs, RegistryPreservesRegistrationOrder) {
  obs::Registry registry;
  registry.counter("z.second");
  registry.histogram("a.third");
  registry.counter("m.first");  // counters and histograms interleave
  registry.gauge("g.depth");
  const obs::RegistrySnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "z.second");
  EXPECT_EQ(snap.counters[1].first, "m.first");
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].first, "a.third");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].first, "g.depth");
}

TEST(Obs, RegistryIsIdempotentPerName) {
  obs::Registry registry;
  obs::Counter& first = registry.counter("requests");
  obs::Counter& second = registry.counter("requests");
  EXPECT_EQ(&first, &second);
  first.add(2);
  second.add(3);
  const obs::RegistrySnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].second, 5u);
}

TEST(Obs, RegistryRejectsKindMismatch) {
  obs::Registry registry;
  registry.counter("name");
  EXPECT_THROW(registry.gauge("name"), Error);
  EXPECT_THROW(registry.histogram("name"), Error);
}

TEST(Obs, RegistryConcurrentUseIsSafe) {
  // Registration (mutex) races recording (lock-free) and snapshots;
  // run under TSan in CI.
  obs::Registry registry;
  obs::Counter& shared = registry.counter("shared");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry, &shared, t] {
      obs::Histogram& histogram =
          registry.histogram("h" + std::to_string(t % 2));
      for (int i = 0; i < 2000; ++i) {
        shared.add();
        histogram.record_us(static_cast<std::uint64_t>(i));
        if (i % 500 == 0) {
          registry.snapshot();
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const obs::RegistrySnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].second, 4u * 2000u);
  std::uint64_t recorded = 0;
  for (const auto& [name, histogram] : snap.histograms) {
    recorded += histogram.count;
  }
  EXPECT_EQ(recorded, 4u * 2000u);
}

}  // namespace
}  // namespace dspaddr
