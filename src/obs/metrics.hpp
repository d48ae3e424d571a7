// obs — the always-on operational metrics layer of the serving stack.
//
// Modeled on GCC's timevar.h philosophy: instrumentation cheap enough
// to leave enabled in production builds, so per-stage latency and
// cache-tier behaviour are observable on every request instead of only
// under a profiler. Three lock-free instruments, all safe to hammer
// from many worker threads:
//
//  * Counter   — a monotonic sum, striped over cache-line-padded
//                atomics so concurrent workers never bounce one line;
//  * Gauge     — an instantaneous level (queue depth, in-flight
//                window occupancy) with a high-watermark;
//  * Histogram — fixed log-linear latency buckets in microseconds
//                (one per value below 8, then 8 per power of two, so no
//                bucket is wider than 1/8 of its lower edge),
//                aggregated only on read. Percentiles are computed from
//                the bucket counts and reported as the containing
//                bucket's upper edge — at most 12.5 % (1 µs below 8 µs)
//                above the true value — so two snapshots of identical
//                counts always render identical JSON.
//
// Instruments live in a Registry that preserves registration order —
// snapshots, the serve `{"metrics":true}` JSON and the `--metrics-csv`
// dump all iterate in that order, so the *schema* of the output is
// deterministic (the values are wall-clock measurements and are
// deliberately never part of cached results or byte-compared
// responses; see engine/serialize.hpp).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dspaddr::obs {

/// A monotonically increasing sum. add() is wait-free; value() sums
/// the stripes and may race concurrent adds (counters are monotonic,
/// so a reader only ever under-counts in-flight increments).
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    stripes_[stripe_index()].value.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const Stripe& stripe : stripes_) {
      sum += stripe.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  static constexpr std::size_t kStripes = 16;

  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> value{0};
  };

  /// Each thread is pinned round-robin to one stripe on first use.
  static std::size_t stripe_index();

  std::array<Stripe, kStripes> stripes_{};
};

/// An instantaneous level with a high-watermark. record() publishes a
/// new level; the watermark only grows.
class Gauge {
 public:
  void record(std::int64_t level) {
    value_.store(level, std::memory_order_relaxed);
    std::int64_t seen = max_.load(std::memory_order_relaxed);
    while (level > seen &&
           !max_.compare_exchange_weak(seen, level,
                                       std::memory_order_relaxed)) {
    }
  }

  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  std::int64_t max() const { return max_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Point-in-time view of one histogram (see Histogram::snapshot).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum_us = 0;
  std::uint64_t max_us = 0;
  std::vector<std::uint64_t> buckets;

  /// Upper edge (exclusive) of bucket `i` in microseconds (see
  /// Histogram::kSubBuckets); the open last bucket reports twice its
  /// lower edge.
  static std::uint64_t bucket_upper_us(std::size_t i);

  /// The upper edge of the bucket containing the p-th percentile rank
  /// (p in (0, 100]); 0 when the histogram is empty. Deterministic in
  /// the bucket counts.
  std::uint64_t percentile_us(double p) const;
};

/// Fixed-bucket latency histogram (microseconds). record() touches one
/// bucket counter plus the count/sum/max atomics — no locks, no
/// allocation — so it is safe on the per-request hot path.
class Histogram {
 public:
  /// Buckets per power of two. Values below kSubBuckets get a bucket
  /// each; from there on [2^e, 2^(e+1)) splits into kSubBuckets buckets
  /// of width 2^(e-3), at most 1/8 of any value in them, so a bucket's
  /// upper edge overstates its values by at most 12.5 %.
  static constexpr std::size_t kSubBuckets = 8;
  /// Values from 2^kOpenExponent µs (about 72 minutes) on share the
  /// open last bucket.
  static constexpr std::size_t kOpenExponent = 32;
  /// kSubBuckets exact buckets, kSubBuckets per power of two from 2^3
  /// to 2^(kOpenExponent - 1), and the open one.
  static constexpr std::size_t kBuckets =
      kSubBuckets * (kOpenExponent - 2) + 1;

  void record_us(std::uint64_t us);

  HistogramSnapshot snapshot() const;

 private:
  static std::size_t bucket_index(std::uint64_t us);

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_us_{0};
  std::atomic<std::uint64_t> max_us_{0};
};

/// Everything one registry knows, frozen at snapshot time, in
/// registration order.
struct RegistrySnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// name -> (value, max)
  std::vector<std::pair<std::string, std::pair<std::int64_t, std::int64_t>>>
      gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

/// Owns a fixed set of named instruments. Registration (setup time)
/// takes a mutex; the returned references are stable for the registry's
/// lifetime, so the hot path holds them and never looks anything up.
/// Registering a name twice returns the existing instrument (two
/// surfaces sharing a registry can idempotently claim their metrics);
/// a name registered as a different kind throws.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  RegistrySnapshot snapshot() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Entry {
    std::string name;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& find_or_add(const std::string& name, Kind kind);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace dspaddr::obs
