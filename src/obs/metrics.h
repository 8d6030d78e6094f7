// Metrics registry: named counters, gauges and log-linear histograms,
// snapshotable as one compact JSON object. The registry backs the
// per-scenario metrics rows the experiment harness emits and gives
// library users a cheap way to quantify a connection (RTT distribution,
// ack delays, scheduler decision latency, bytes per path) without
// storing full traces.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "obs/json.h"

namespace mpq::obs {

/// Monotonically increasing event/byte count.
class Counter {
 public:
  void Increment(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-value-wins instantaneous measurement.
class Gauge {
 public:
  void Set(std::int64_t value) { value_ = value; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Log-linear histogram over non-negative integer values (HdrHistogram's
/// bucketing idea): values below 32 get exact unit buckets; above that,
/// each power-of-two range is split into 16 linear sub-buckets, bounding
/// the relative quantile error at ~6% while covering the full 64-bit
/// range in under a thousand buckets. Recording is two shifts and an
/// increment — cheap enough for per-packet datapath use.
class Histogram {
 public:
  static constexpr std::size_t kUnitBuckets = 32;   // exact region
  static constexpr std::size_t kSubBuckets = 16;    // per power of two
  static constexpr std::size_t kBucketCount =
      kUnitBuckets + (64 - 5) * kSubBuckets;

  /// Bucket for `value` (negatives clamp to 0).
  static std::size_t BucketIndex(std::int64_t value);
  /// Smallest value mapping to bucket `index`.
  static std::uint64_t BucketLowerBound(std::size_t index);

  void Record(std::int64_t value);

  /// Fold `other` into this histogram (bucket-wise add; min/max/sum/count
  /// combine). MetricsRegistry::MergeFrom uses it to fold per-shard
  /// registries into one.
  void Merge(const Histogram& other);

  std::uint64_t count() const { return count_; }
  std::int64_t min() const { return count_ == 0 ? 0 : min_; }
  std::int64_t max() const { return count_ == 0 ? 0 : max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }
  /// True if the running sum hit the accumulator's ceiling and mean() is
  /// a lower bound. Unreachable when 128-bit accumulation is available.
  bool sum_saturated() const { return sum_saturated_; }

  /// Approximate percentile, p in [0, 100]: midpoint of the bucket the
  /// rank falls into, clamped to the exact recorded [min, max]. 0 when
  /// empty.
  double Percentile(double p) const;

  /// {"count":..,"min":..,"mean":..,"p50":..,"p90":..,"p99":..,
  ///  "p999":..,"max":..}
  void WriteJson(JsonWriter& writer) const;

 private:
  // Nanosecond-scale values over long sweeps overflow a 64-bit signed
  // sum (2^63 ns ≈ 292 years, but 2^63 total is reached by ~10^10
  // millisecond-scale samples). Accumulate in 128 bits where the
  // compiler provides it; otherwise saturate and flag.
#if defined(__SIZEOF_INT128__)
  using SumType = unsigned __int128;
#else
  using SumType = std::uint64_t;
#endif
  void AddToSum(std::uint64_t value);

  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t count_ = 0;
  SumType sum_ = 0;
  bool sum_saturated_ = false;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

/// Named metrics with stable addresses: a Get*() reference stays valid
/// for the registry's lifetime, so hot paths look a metric up once and
/// keep the pointer.
class MetricsRegistry {
 public:
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// One compact JSON object:
  ///   {"counters":{...},"gauges":{...},"histograms":{...}}
  /// Names iterate sorted — snapshots are deterministic.
  void WriteJson(JsonWriter& writer) const;
  std::string SnapshotJson() const;

  /// Fold `other` into this registry: counters add, histograms
  /// bucket-merge (Histogram::Merge), gauges last-write-wins (the value
  /// from `other` replaces ours — merge order is the caller's
  /// reduction order, so per-shard KPI registries folded in shard order
  /// reduce deterministically). Metrics absent on either side are
  /// created/kept.
  void MergeFrom(const MetricsRegistry& other);

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace mpq::obs
