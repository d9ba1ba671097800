// Copyright 2026 The streambid Authors
// The task runtime of the cluster layer: a fixed pool of persistent
// worker threads that runs batches of closures fork-join style. Each
// worker owns a WorkerContext — its worker id plus its own
// AdmissionService (and therefore its own AuctionContext scratch arena)
// — so admission work scheduled here still honors the "shard one
// service per thread" rule, while non-admission stages (auction
// preparation, engine execution, billing) share the same pool instead
// of spawning ad-hoc threads.
//
// Scheduling: one FIFO of work items under one mutex. RunAll pushes one
// item per task, wakes up to that many workers, and sleeps until its
// batch's remaining count reaches zero; workers pop the front item, run
// it outside the lock, and account it on their next trip through the
// lock. The cluster issues at most one task per shard per batch, which
// is the traffic a single queue is sized for. Nothing on the
// RunAll→execute path allocates per task: items are plain
// {function pointer, batch, index, counter} records in a vector that
// keeps its capacity, and every typed result is written straight into
// its slot of the caller's result vector.
//
// Determinism contract: the executor adds none of its own randomness to
// results. A task's result is whatever the closure computes; closures
// that are pure functions of their captures (the admission requests'
// per-request RNG streams, a shard's private state) produce identical
// results at every pool size and interleaving — the pool only decides
// *where* a task runs, never what it computes. That is what lets the
// ClusterCenter run whole periods through this pool and still replay
// byte-identically at every pool size.

#ifndef STREAMBID_CLUSTER_TASK_EXECUTOR_H_
#define STREAMBID_CLUSTER_TASK_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/lock_order.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "service/admission_service.h"

namespace streambid::telemetry {
class Counter;
class Histogram;
class MetricsRegistry;
}  // namespace streambid::telemetry

namespace streambid::cluster {

/// Executor configuration.
struct ExecutorOptions {
  /// Worker threads; 0 means the CPUs actually available to this
  /// process (affinity mask ∧ cgroup quota — see
  /// common/cpu.h AvailableCpuCount), at least 1.
  int num_threads = 0;
  /// Optional telemetry sink. When set, the executor publishes
  /// executor_tasks_executed / executor_task_latency, and each worker's
  /// AdmissionService records its per-admission series into the same
  /// registry. Null disables all of it at zero hot-path cost. Must
  /// outlive the executor.
  telemetry::MetricsRegistry* metrics = nullptr;
};

/// Worker-local state handed to every task. The service is owned by the
/// worker (one per thread, never shared), so tasks may run admission
/// auctions on it without synchronization — but must not stash the
/// pointer beyond the task's own execution.
struct WorkerContext {
  int worker_id = 0;
  service::AdmissionService* service = nullptr;
};

/// Snapshot returned by TaskExecutor::StatsReport().
struct TaskExecutorStats {
  /// Tasks a worker finished executing (sum of tasks_per_worker).
  int64_t executed = 0;
  /// Executed tasks whose closure returned an error Result.
  int64_t failed = 0;
  /// Tasks executed per worker, indexed by worker id. The vector length
  /// is always num_threads(): work landing anywhere else than these
  /// workers is structurally impossible, which is the "no threads
  /// outside the pool" observability hook the cluster tests assert.
  std::vector<int64_t> tasks_per_worker;
};

/// Fork-join thread pool. Thread-safe: any number of threads outside the
/// pool may call RunAll concurrently; their batches share the FIFO.
/// RunAll must never be called from inside a task (a worker blocked on
/// its own pool can deadlock it), and destruction must happen-after
/// every RunAll call has returned.
class TaskExecutor {
 public:
  /// A unit of work: runs on some worker, sees that worker's context,
  /// reports success or failure through Result<T>.
  template <typename T>
  using Task = std::function<Result<T>(WorkerContext&)>;

  explicit TaskExecutor(const ExecutorOptions& options = {});
  /// Stops and joins the workers. Nothing can still be queued: every
  /// RunAll blocks until its whole batch has run.
  ~TaskExecutor();

  TaskExecutor(const TaskExecutor&) = delete;
  TaskExecutor& operator=(const TaskExecutor&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Runs every task on the pool and blocks until all finish. Results
  /// are positionally aligned with the tasks; every task runs even when
  /// some fail, and each failure stays in its own slot.
  template <typename T>
  std::vector<Result<T>> RunAll(const std::vector<Task<T>>& tasks) {
    // Placeholders every worker overwrites; the short message stays in
    // the string's inline buffer, so filling the slots never allocates.
    std::vector<Result<T>> results;
    results.reserve(tasks.size());
    for (size_t i = 0; i < tasks.size(); ++i) {
      results.emplace_back(Status(StatusCode::kInternal, "not run"));
    }
    const TypedBatch<T> batch{&tasks, &results};
    RunBatch(&RunOne<T>, &batch, tasks.size());
    return results;
  }

  /// Copies the counters accumulated so far.
  TaskExecutorStats StatsReport() const;

 private:
  /// Runs task `index` of the type-erased `batch` on the calling worker
  /// and stores its result; returns whether the result is OK.
  using RunFn = bool (*)(const void* batch, size_t index,
                         WorkerContext& context);

  template <typename T>
  struct TypedBatch {
    const std::vector<Task<T>>* tasks;
    std::vector<Result<T>>* results;
  };

  template <typename T>
  static bool RunOne(const void* batch, size_t index,
                     WorkerContext& context) {
    const TypedBatch<T>& typed = *static_cast<const TypedBatch<T>*>(batch);
    Result<T>& slot = (*typed.results)[index];
    slot = (*typed.tasks)[index](context);
    return slot.ok();
  }

  /// One queued task: index `index` of `batch`. `remaining` is the
  /// issuing RunBatch's count of unfinished items, guarded by mutex_.
  struct WorkItem {
    RunFn run = nullptr;
    const void* batch = nullptr;
    size_t index = 0;
    size_t* remaining = nullptr;
  };

  /// Queues `count` items of `batch` and blocks until all have run.
  void RunBatch(RunFn run, const void* batch, size_t count);
  void WorkerLoop(int worker_id);

  std::vector<std::unique_ptr<service::AdmissionService>> services_;

  mutable Mutex mutex_ = Mutex{LockRank::kExecutorQueue, "executor/queue"};
  CondVar work_cv_;  ///< Signals queued work and stop.
  CondVar done_cv_;  ///< Signals a finished batch.
  /// The FIFO: items [head_, queue_.size()) are pending. Consumed
  /// prefixes are reclaimed in place, so steady state never reallocates.
  std::vector<WorkItem> queue_ GUARDED_BY(mutex_);
  size_t head_ GUARDED_BY(mutex_) = 0;
  bool stop_ GUARDED_BY(mutex_) = false;
  std::vector<int64_t> tasks_per_worker_ GUARDED_BY(mutex_);
  int64_t failed_ GUARDED_BY(mutex_) = 0;

  /// Telemetry instruments; null when ExecutorOptions::metrics is.
  telemetry::Counter* tasks_executed_metric_ = nullptr;
  telemetry::Histogram* task_latency_metric_ = nullptr;

  /// Declared after everything the workers touch.
  std::vector<std::thread> workers_;
};

}  // namespace streambid::cluster

#endif  // STREAMBID_CLUSTER_TASK_EXECUTOR_H_
