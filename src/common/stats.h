// Online statistics used by the benchmark harnesses and the simulator:
// Welford mean/variance, a log-bucketed latency histogram with percentile
// queries, and the lock-free Counter the stats structs are made of.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace swala {

/// One lock-free counter field of a stats struct. Every bump is a single
/// relaxed atomic add, so the struct its owner bumps in place is also the
/// snapshot `stats()` returns: copying a Counter is a relaxed load. Fields
/// of one snapshot are read one by one, not as a consistent cut. `--` and
/// `-=` serve gauges such as active connections.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other) : value_(other) {}
  Counter& operator=(const Counter& other) {
    value_.store(other, std::memory_order_relaxed);
    return *this;
  }

  void operator++() { value_.fetch_add(1, std::memory_order_relaxed); }
  void operator--() { value_.fetch_sub(1, std::memory_order_relaxed); }
  void operator+=(std::uint64_t n) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void operator-=(std::uint64_t n) {
    value_.fetch_sub(n, std::memory_order_relaxed);
  }

  operator std::uint64_t() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Streaming mean / variance / min / max (Welford's algorithm).
class OnlineStats {
 public:
  void add(double x);
  void merge(const OnlineStats& other);

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;  ///< population variance
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Latency histogram with geometric buckets spanning [1 ns, ~1000 s] when
/// fed seconds. Percentile queries interpolate inside a bucket; relative
/// error is bounded by the bucket ratio (~5 %).
class LatencyHistogram {
 public:
  LatencyHistogram();

  /// Records a non-negative sample (seconds).
  void add(double seconds);
  void merge(const LatencyHistogram& other);

  std::uint64_t count() const { return total_; }
  double percentile(double p) const;  ///< p in [0, 100]
  double mean() const { return stats_.mean(); }
  double max() const { return stats_.max(); }
  double min() const { return stats_.min(); }

  /// "mean=... p50=... p95=... p99=... max=..." for report lines.
  std::string summary() const;

 private:
  static constexpr int kBuckets = 512;
  static int bucket_for(double seconds);
  static double bucket_lower(int index);

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t total_ = 0;
  OnlineStats stats_;
};

/// Fixed-width table printer for the experiment harnesses: aligns columns,
/// prints a header row and separator the way the paper's tables read.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  /// Renders the table to a string (used by benches; keeps output testable).
  std::string render() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper for table cells).
std::string fmt_double(double v, int precision);

}  // namespace swala
