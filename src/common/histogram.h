// Copyright 2026 The streambid Authors
// Coarse log2-bucketed latency histogram, the one histogram type shared
// by every layer that measures waits: the gate's ticket pools record
// grant latency into it, the telemetry registry aggregates task and
// drain latencies with it, and parallel accumulators combine via
// Merge(). Cheap enough to update under
// a pool lock on a slow path: one log2, one array increment.

#ifndef STREAMBID_COMMON_HISTOGRAM_H_
#define STREAMBID_COMMON_HISTOGRAM_H_

#include <array>
#include <cstdint>

namespace streambid {

/// Log2-bucketed histogram of latencies in microseconds. Bucket 0 holds
/// sub-microsecond samples (a fast path records 0); bucket k >= 1 holds
/// samples in [2^(k-1), 2^k) microseconds.
struct LatencyHistogram {
  static constexpr int kBuckets = 24;  ///< Up to ~8.4 wall-clock seconds.
  std::array<int64_t, kBuckets> buckets{};
  int64_t total = 0;
  double sum = 0.0;  ///< Sum of recorded samples, in microseconds.

  void Record(double micros);
  /// Folds another accumulator in (parallel-safe combine): bucket-wise
  /// addition.
  void Merge(const LatencyHistogram& other);
  /// Upper bucket edge (in milliseconds) below which fraction `p` of
  /// recorded samples fall; 0 when nothing was recorded. p in [0, 1].
  double PercentileMillis(double p) const;
  /// Mean recorded sample in microseconds (0 when empty).
  double MeanMicros() const {
    return total > 0 ? sum / static_cast<double>(total) : 0.0;
  }
  /// Upper edge of bucket k in microseconds (2^k; bucket 0 reports 1).
  static double BucketUpperMicros(int k);
};

}  // namespace streambid

#endif  // STREAMBID_COMMON_HISTOGRAM_H_
