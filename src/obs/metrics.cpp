#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace dspaddr::obs {

std::size_t Counter::stripe_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return index;
}

namespace {

/// log2(Histogram::kSubBuckets): the top bits of a value that pick its
/// bucket within its power of two.
constexpr std::size_t kSubBits = 3;
static_assert(Histogram::kSubBuckets == std::size_t{1} << kSubBits);

}  // namespace

std::size_t Histogram::bucket_index(std::uint64_t us) {
  if (us < kSubBuckets) {
    return static_cast<std::size_t>(us);
  }
  if (us >= std::uint64_t{1} << kOpenExponent) {
    return kBuckets - 1;
  }
  // us in [2^e, 2^(e+1)), e >= kSubBits: the kSubBits bits below the
  // leading one pick one of kSubBuckets buckets of width 2^(e-3).
  const auto exponent = static_cast<std::size_t>(63 - __builtin_clzll(us));
  const auto sub = static_cast<std::size_t>(
      (us >> (exponent - kSubBits)) & (kSubBuckets - 1));
  return kSubBuckets * (exponent - kSubBits + 1) + sub;
}

void Histogram::record_us(std::uint64_t us) {
  buckets_[bucket_index(us)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(us, std::memory_order_relaxed);
  std::uint64_t seen = max_us_.load(std::memory_order_relaxed);
  while (us > seen &&
         !max_us_.compare_exchange_weak(seen, us,
                                        std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.resize(kBuckets);
  for (std::size_t i = 0; i < kBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum_us = sum_us_.load(std::memory_order_relaxed);
  snap.max_us = max_us_.load(std::memory_order_relaxed);
  return snap;
}

std::uint64_t HistogramSnapshot::bucket_upper_us(std::size_t i) {
  constexpr std::size_t kSub = Histogram::kSubBuckets;
  if (i < kSub) {
    return i + 1;
  }
  if (i >= Histogram::kBuckets - 1) {
    return std::uint64_t{2} << Histogram::kOpenExponent;
  }
  // Inverse of bucket_index: bucket i covers
  // [(kSub + sub) << shift, (kSub + sub + 1) << shift).
  const std::size_t shift = i / kSub - 1;
  return static_cast<std::uint64_t>(kSub + i % kSub + 1) << shift;
}

std::uint64_t HistogramSnapshot::percentile_us(double p) const {
  // Sum the snapshot's own buckets rather than trusting `count`: the
  // two may disagree by in-flight increments when snapshotted under
  // concurrent writers, and the percentile must stay internally
  // consistent with the bucket walk below.
  std::uint64_t total = 0;
  for (const std::uint64_t bucket : buckets) {
    total += bucket;
  }
  if (total == 0) {
    return 0;
  }
  const double clamped = std::min(100.0, std::max(0.0, p));
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(clamped / 100.0 *
                                              static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      return bucket_upper_us(i);
    }
  }
  return bucket_upper_us(buckets.size() - 1);
}

Registry::Entry& Registry::find_or_add(const std::string& name, Kind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::unique_ptr<Entry>& entry : entries_) {
    if (entry->name == name) {
      check_arg(entry->kind == kind,
                "metric '" + name +
                    "' already registered as a different instrument kind");
      return *entry;
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->kind = kind;
  switch (kind) {
    case Kind::kCounter:
      entry->counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      entry->gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      entry->histogram = std::make_unique<Histogram>();
      break;
  }
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

Counter& Registry::counter(const std::string& name) {
  return *find_or_add(name, Kind::kCounter).counter;
}

Gauge& Registry::gauge(const std::string& name) {
  return *find_or_add(name, Kind::kGauge).gauge;
}

Histogram& Registry::histogram(const std::string& name) {
  return *find_or_add(name, Kind::kHistogram).histogram;
}

RegistrySnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RegistrySnapshot snap;
  for (const std::unique_ptr<Entry>& entry : entries_) {
    switch (entry->kind) {
      case Kind::kCounter:
        snap.counters.emplace_back(entry->name, entry->counter->value());
        break;
      case Kind::kGauge:
        snap.gauges.emplace_back(
            entry->name, std::make_pair(entry->gauge->value(),
                                        entry->gauge->max()));
        break;
      case Kind::kHistogram:
        snap.histograms.emplace_back(entry->name,
                                     entry->histogram->snapshot());
        break;
    }
  }
  return snap;
}

}  // namespace dspaddr::obs
