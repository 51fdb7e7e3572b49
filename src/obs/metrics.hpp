// Unified metrics registry: named counters, gauges, and log-scale
// histograms with an optional per-process label.
//
// Every subsystem's ad-hoc stats struct (DsmStats, TaskStats, BusStats,
// WarpMeter, rollback counters) publishes through this one interface, so a
// driver can dump a single coherent table/CSV/JSON instead of each
// experiment hand-rolling its own reporting.  Lookups are string-keyed and
// therefore NOT for the hot path: instrumented code obtains a handle once
// (references into the registry are stable) and increments through it, or
// flushes an existing stats struct wholesale at end of run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace nscc::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { v_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return v_; }

 private:
  std::uint64_t v_ = 0;
};

/// Point-in-time level (blocked readers, in-flight updates, utilisation).
class Gauge {
 public:
  void set(double v) noexcept { v_ = v; }
  void add(double d) noexcept { v_ += d; }
  [[nodiscard]] double value() const noexcept { return v_; }

 private:
  double v_ = 0.0;
};

/// Log2-bucketed histogram: bucket 0 holds v < 1, bucket i (i >= 1) holds
/// [2^(i-1), 2^i).  Cheap enough for per-primitive latencies in virtual
/// nanoseconds and for small integer distributions like staleness.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void observe(double v) noexcept;

  /// Fold another histogram's buckets and moments into this one (exact:
  /// both use the same fixed log2 bucket layout).
  void merge(const Histogram& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] double min() const noexcept { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ > 0 ? max_ : 0.0; }
  [[nodiscard]] std::uint64_t bucket(int i) const noexcept {
    return buckets_[static_cast<std::size_t>(i)];
  }
  /// Exclusive upper bound of bucket i (inf for the last).
  [[nodiscard]] static double bucket_upper(int i) noexcept;
  /// Bucket-resolution quantile estimate (upper bound of the bucket holding
  /// the q-th observation); 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept;

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

class Registry {
 public:
  /// Get or create a metric.  `pid` labels the simulated process the metric
  /// belongs to; -1 means machine-wide.  Returned references stay valid for
  /// the registry's lifetime.
  Counter& counter(const std::string& name, int pid = -1);
  Gauge& gauge(const std::string& name, int pid = -1);
  Histogram& histogram(const std::string& name, int pid = -1);

  /// Read-only lookups that do NOT create (for tests and reporting):
  /// value of an absent counter/gauge is 0; absent histogram is nullptr.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name,
                                            int pid = -1) const noexcept;
  [[nodiscard]] double gauge_value(const std::string& name,
                                   int pid = -1) const noexcept;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name,
                                                int pid = -1) const noexcept;
  /// Sum of counter `name` over every pid label, machine-wide included
  /// (0 when absent).
  [[nodiscard]] std::uint64_t counter_total(
      const std::string& name) const noexcept;

  /// One flattened row per metric (histograms export count/mean/max).
  struct Sample {
    std::string name;
    int pid = -1;       ///< -1 = machine-wide.
    const char* kind;   ///< "counter", "gauge", "histogram".
    double value;       ///< Counter/gauge value; histogram mean.
    std::uint64_t count = 0;  ///< Histogram observation count.
    double max = 0.0;         ///< Histogram max.
  };
  [[nodiscard]] std::vector<Sample> snapshot() const;

  [[nodiscard]] std::string to_csv() const;
  [[nodiscard]] std::string to_json() const;

  [[nodiscard]] std::size_t size() const noexcept {
    return counters_.size() + gauges_.size() + histograms_.size();
  }
  void clear();

 private:
  using Key = std::pair<std::string, int>;
  std::map<Key, Counter> counters_;
  std::map<Key, Gauge> gauges_;
  std::map<Key, Histogram> histograms_;
};

}  // namespace nscc::obs
