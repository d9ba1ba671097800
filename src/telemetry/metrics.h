// Copyright 2026 The streambid Authors
// The unified metrics layer: one MetricsRegistry of named counters,
// gauges, and latency histograms shared by every layer of the stack
// (gate -> cluster -> center), with a contention-free hot path and
// machine-readable exposition.
//
// Hot-path contract: an instrument update never takes a global lock.
//  - Counter::Increment is ONE relaxed atomic add into a cache-line-
//    padded slot picked by a thread-local index; slots are summed only
//    at snapshot time (the MongoDB execution-control pattern: sharded
//    accumulation, merge on read).
//  - Gauge::Set is one relaxed atomic store; Gauge::Add a CAS loop.
//  - Histogram::Record takes a per-slot mutex (sharded the same way),
//    so concurrent recorders on different threads rarely contend and
//    never serialize against a snapshot of the whole registry.
//
// Registration (GetCounter/GetGauge/GetHistogram) takes the registry
// mutex and is meant for construction time: components resolve their
// instrument handles once and hold the stable pointers. The same name
// always resolves to the same instrument, so layers share series
// naturally (instruments live as long as the registry).
//
// Zero-perturbation: components hold nullable instrument pointers and
// skip the update when telemetry is disabled (a null registry) — the
// instrumented binary with telemetry off executes the exact same
// instructions as before the instrumentation, and telemetry on never
// feeds back into any admission/routing/scaling decision, so replay
// identity is untouched either way (tests/telemetry asserts this).
//
// Exposition: TextExposition() renders the Prometheus text format
// (counters, gauges, and cumulative histogram buckets with le edges in
// microseconds); Snapshot() returns the merged values as ordered maps
// for programmatic use.

#ifndef STREAMBID_TELEMETRY_METRICS_H_
#define STREAMBID_TELEMETRY_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/histogram.h"
#include "common/lock_order.h"
#include "common/thread_annotations.h"

namespace streambid::telemetry {

/// Slot count for sharded instruments. More slots than typical worker
/// counts so threads mostly land alone; each slot is cache-line padded
/// so concurrent increments never false-share.
inline constexpr int kMetricSlots = 16;

/// Returns this thread's stable slot index in [0, kMetricSlots):
/// assigned round-robin at first use, so up to kMetricSlots concurrent
/// threads get private slots.
int ThreadSlot();

/// Monotonically increasing counter. Thread-safe; Increment is one
/// relaxed atomic add (no lock, no sharing between slots).
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    slots_[static_cast<size_t>(ThreadSlot())].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  /// Sums the slots (relaxed reads; exact once writers quiesce).
  int64_t Value() const;
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  struct alignas(64) Slot {
    std::atomic<int64_t> value{0};
  };
  const std::string name_;
  std::array<Slot, kMetricSlots> slots_{};
};

/// Last-write-wins scalar. Thread-safe: Set is a relaxed store, Add a
/// CAS loop (used for cross-shard accumulations like total revenue).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta);
  double Value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  const std::string name_;
  std::atomic<double> value_{0.0};
};

/// Sharded latency histogram (microseconds). Record takes only the
/// recording thread's slot mutex; Snapshot merges the slots.
class Histogram {
 public:
  void Record(double micros);
  /// Merged view across slots.
  LatencyHistogram Snapshot() const;
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::string name) : name_(std::move(name)) {}

  struct alignas(64) Slot {
    /// Innermost in the telemetry layer: MetricsRegistry::Snapshot
    /// holds the registry mutex (kMetricsRegistry, 400) across this
    /// lock — a sanctioned nesting, ascending by rank value; the
    /// cross-class edge itself is enforced by the lock-order lint and
    /// the runtime sentinel.
    mutable Mutex mutex =
        Mutex{LockRank::kHistogramSlot, "telemetry/histogram_slot"};
    LatencyHistogram histogram GUARDED_BY(mutex);
  };
  const std::string name_;
  std::array<Slot, kMetricSlots> slots_{};
};

/// Point-in-time merged view of every registered instrument, keyed by
/// name in lexicographic order (so exposition and test comparisons are
/// deterministic).
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, LatencyHistogram> histograms;
};

/// The registry. Thread-safe throughout; see the file comment for the
/// lock discipline (registration locks, instrument updates do not).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Resolve-or-create by name. The returned pointer is stable for the
  /// registry's lifetime; the same name always returns the same
  /// instrument. Names should be Prometheus-style (snake_case, optional
  /// {label="value"} suffix) and unique across instrument kinds.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Merged values of every instrument. Safe to call while writers are
  /// updating (each counter slot is read atomically; each histogram
  /// slot under its mutex) — the snapshot is a consistent sum of what
  /// had been recorded at the time each slot was visited.
  MetricsSnapshot Snapshot() const;

  /// Prometheus text exposition of Snapshot(): "# TYPE" headers,
  /// counters/gauges as single samples, histograms as cumulative
  /// _bucket{le="<upper edge in us>"} series plus _sum and _count.
  std::string TextExposition() const;

 private:
  mutable Mutex mutex_ =
      Mutex{LockRank::kMetricsRegistry, "telemetry/metrics_registry"};
  std::map<std::string, std::unique_ptr<Counter>> counters_
      GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mutex_);
};

}  // namespace streambid::telemetry

#endif  // STREAMBID_TELEMETRY_METRICS_H_
