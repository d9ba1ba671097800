// Copyright 2026 The streambid Authors

#include "cluster/task_executor.h"

#include <algorithm>

#include "common/cpu.h"
#include "common/timer.h"
#include "telemetry/metrics.h"

namespace streambid::cluster {

TaskExecutor::TaskExecutor(const ExecutorOptions& options) {
  int n = options.num_threads;
  // 0 means "size to the machine" — but to the CPUs this process can
  // actually use (affinity ∧ cgroup quota), not the raw core count,
  // which oversubscribes container-limited CI runners.
  if (n <= 0) n = AvailableCpuCount();
  if (options.metrics != nullptr) {
    tasks_executed_metric_ =
        options.metrics->GetCounter("executor_tasks_executed");
    task_latency_metric_ =
        options.metrics->GetHistogram("executor_task_latency");
  }
  {
    MutexLock lock(mutex_);
    tasks_per_worker_.assign(static_cast<size_t>(n), 0);
  }
  services_.reserve(static_cast<size_t>(n));
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    services_.push_back(std::make_unique<service::AdmissionService>());
    services_.back()->set_metrics(options.metrics);
  }
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TaskExecutor::~TaskExecutor() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void TaskExecutor::RunBatch(RunFn run, const void* batch, size_t count) {
  if (count == 0) return;
  size_t remaining = count;
  {
    MutexLock lock(mutex_);
    // Reclaim the consumed prefix before appending, so the vector's
    // capacity tracks the peak backlog even while concurrent callers
    // keep the queue from ever draining empty.
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
    for (size_t i = 0; i < count; ++i) {
      queue_.push_back(WorkItem{run, batch, i, &remaining});
    }
  }
  // Busy workers re-check the queue before sleeping, so waking one idle
  // worker per item (at most the whole pool) loses nothing.
  const size_t wake = std::min(count, workers_.size());
  for (size_t i = 0; i < wake; ++i) work_cv_.NotifyOne();
  MutexLock lock(mutex_);
  while (remaining > 0) done_cv_.Wait(mutex_);
}

void TaskExecutor::WorkerLoop(int worker_id) {
  WorkerContext context;
  context.worker_id = worker_id;
  context.service = services_[static_cast<size_t>(worker_id)].get();
  const bool timed = task_latency_metric_ != nullptr;
  WorkItem item;
  bool ok = true;
  for (;;) {
    {
      MutexLock lock(mutex_);
      // One trip through the lock per task: account the item just run,
      // then pop the next. The accounted item's caller may return (and
      // free its batch) as soon as the lock drops, so `item` is
      // overwritten or abandoned here, never touched again.
      if (item.run != nullptr) {
        ++tasks_per_worker_[static_cast<size_t>(worker_id)];
        if (!ok) ++failed_;
        if (--*item.remaining == 0) done_cv_.NotifyAll();
      }
      while (!stop_ && head_ == queue_.size()) work_cv_.Wait(mutex_);
      if (head_ == queue_.size()) return;  // Stopped with nothing queued.
      item = queue_[head_++];
      if (head_ == queue_.size()) {
        queue_.clear();
        head_ = 0;
      }
    }
    // Execute outside the lock: the closure is the expensive part. The
    // latency clock reads happen only when telemetry is wired.
    Timer task_timer;
    if (timed) task_timer.Start();
    ok = item.run(item.batch, item.index, context);
    if (timed) {
      task_latency_metric_->Record(task_timer.ElapsedMillis() * 1000.0);
    }
    if (tasks_executed_metric_ != nullptr) {
      tasks_executed_metric_->Increment();
    }
  }
}

TaskExecutorStats TaskExecutor::StatsReport() const {
  TaskExecutorStats stats;
  MutexLock lock(mutex_);
  stats.tasks_per_worker = tasks_per_worker_;
  for (const int64_t executed : tasks_per_worker_) stats.executed += executed;
  stats.failed = failed_;
  return stats;
}

}  // namespace streambid::cluster
