// Copyright 2026 The streambid Authors

#include "cluster/task_executor.h"

#include <algorithm>

#include "common/cpu.h"
#include "common/rng.h"
#include "common/timer.h"
#include "telemetry/metrics.h"

namespace streambid::cluster {

namespace {

constexpr size_t kInitialDequeCapacity = 64;
/// Seeds each worker's fixed steal-victim scan rotation.
constexpr uint64_t kStealSeed = 0x51EA15EEDULL;

/// Identifies the pool (if any) the current thread belongs to, so
/// in-task submissions land on the submitting worker's own deque and
/// run cache-hot instead of bouncing through the round-robin cursor.
struct WorkerTls {
  const void* executor = nullptr;
  int worker_id = 0;
};
thread_local WorkerTls tls_worker;

}  // namespace

TaskExecutor::TaskExecutor(const ExecutorOptions& options) {
  int n = options.num_threads;
  // 0 means "size to the machine" — but to the CPUs this process can
  // actually use (affinity ∧ cgroup quota), not the raw core count,
  // which oversubscribes container-limited CI runners.
  if (n <= 0) n = AvailableCpuCount();
  max_queue_depth_.store(options.max_queue_depth > 0
                             ? static_cast<size_t>(options.max_queue_depth)
                             : 0);
  if (options.metrics != nullptr) {
    tasks_executed_metric_ =
        options.metrics->GetCounter("executor_tasks_executed");
    tasks_stolen_metric_ =
        options.metrics->GetCounter("executor_tasks_stolen");
    tasks_local_metric_ = options.metrics->GetCounter("executor_tasks_local");
    queue_depth_metric_ = options.metrics->GetGauge("executor_queue_depth");
    task_latency_metric_ =
        options.metrics->GetHistogram("executor_task_latency");
  }
  // Reserved up front so growth never reallocates the outer vector:
  // lock-free readers index slot_chunks_ concurrently with push_back.
  slot_chunks_.reserve(kMaxSlotChunks);
  services_.reserve(static_cast<size_t>(n));
  counters_.reserve(static_cast<size_t>(n));
  deques_.reserve(static_cast<size_t>(n));
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    services_.push_back(std::make_unique<service::AdmissionService>());
    services_.back()->set_metrics(options.metrics);
    counters_.push_back(std::make_unique<WorkerCounters>());
    deques_.push_back(std::make_unique<WorkerDeque>());
    deques_.back()->ring.resize(kInitialDequeCapacity);
  }
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TaskExecutor::~TaskExecutor() {
  stopping_.store(true);
  {
    MutexLock lock(wake_mutex_);
    ++work_epoch_;
  }
  work_cv_.NotifyAll();
  {
    MutexLock lock(space_mutex_);
  }
  space_cv_.NotifyAll();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  FailPendingWork();
}

void TaskExecutor::FailPendingWork() {
  // Queued work was dropped (the documented contract: only the tasks
  // already running finished, so teardown with a deep backlog does not
  // block on the backlog's runtime). Complete every dropped item's
  // ticket with an error and wake waiters, so a straggling Wait()
  // returns instead of sleeping forever on a result that will never
  // arrive.
  for (std::unique_ptr<WorkerDeque>& deque : deques_) {
    WorkerDeque& d = *deque;
    MutexLock lock(d.mutex);
    while (d.count > 0) {
      WorkItem item = std::move(d.ring[d.top]);
      d.top = (d.top + 1) % d.ring.size();
      --d.count;
      total_queued_.fetch_sub(1);
      if (item.job != nullptr) {
        // RunAll must not race destruction; handled anyway so a
        // contract violation fails loudly instead of hanging.
        item.job->results[item.index] =
            ErasedResult(Status::FailedPrecondition("executor shut down"));
        item.job->remaining.fetch_sub(1);
      } else if (item.ticket != 0) {
        CompleteTicket(item.ticket, ErasedResult(Status::FailedPrecondition(
                                        "executor shut down")));
      }
    }
  }
  // Defensive sweep: workers are joined, so any slot still pending has
  // no task left that could ever complete it.
  const uint32_t n = num_slots_.load();
  for (uint32_t i = 0; i < n; ++i) {
    TicketSlot& slot = Slot(i);
    const uint64_t control = slot.control.load();
    if (StateOf(control) == TicketSlot::kPending) {
      slot.result.emplace(Status::FailedPrecondition("executor shut down"));
      slot.control.store(MakeControl(GenOf(control), TicketSlot::kReady));
    }
  }
  {
    MutexLock lock(done_mutex_);
  }
  done_cv_.NotifyAll();
}

// -- Deques ---------------------------------------------------------

void TaskExecutor::PushToDeque(int worker_id, WorkItem item) {
  WorkerDeque& d = *deques_[static_cast<size_t>(worker_id)];
  {
    MutexLock lock(d.mutex);
    if (d.count == d.ring.size()) {
      // Grow in place (amortized; steady state never hits this): move
      // the live window to the front of a doubled ring.
      const size_t grown_capacity =
          d.ring.empty() ? kInitialDequeCapacity : d.ring.size() * 2;
      std::vector<WorkItem> grown(grown_capacity);
      for (size_t i = 0; i < d.count; ++i) {
        grown[i] = std::move(d.ring[(d.top + i) % d.ring.size()]);
      }
      d.ring = std::move(grown);
      d.top = 0;
    }
    d.ring[(d.top + d.count) % d.ring.size()] = std::move(item);
    ++d.count;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (queue_depth_metric_ != nullptr) {
    queue_depth_metric_->Set(static_cast<double>(total_queued_.load()));
  }
  NotifyWorkers();
}

int TaskExecutor::PickSubmitTarget() {
  if (tls_worker.executor == this) return tls_worker.worker_id;
  return static_cast<int>(
      submit_cursor_.fetch_add(1, std::memory_order_relaxed) %
      deques_.size());
}

bool TaskExecutor::PopOwn(int worker_id, WorkItem* item) {
  WorkerDeque& d = *deques_[static_cast<size_t>(worker_id)];
  MutexLock lock(d.mutex);
  if (d.count == 0) return false;
  --d.count;
  *item = std::move(d.ring[(d.top + d.count) % d.ring.size()]);
  return true;
}

bool TaskExecutor::StealFrom(int victim, WorkItem* item) {
  WorkerDeque& d = *deques_[static_cast<size_t>(victim)];
  MutexLock lock(d.mutex);
  if (d.count == 0) return false;
  *item = std::move(d.ring[d.top]);
  d.top = (d.top + 1) % d.ring.size();
  --d.count;
  return true;
}

bool TaskExecutor::FindWork(int worker_id, WorkItem* item, bool* stolen) {
  if (PopOwn(worker_id, item)) {
    *stolen = false;
    ReleaseQueueSlot();
    return true;
  }
  const int n = static_cast<int>(deques_.size());
  if (n <= 1) return false;
  // Deterministic victim order: a fixed per-worker rotation of the
  // other workers, derived from the worker id. Different workers start
  // at different offsets so thieves don't convoy on one victim.
  const int start = static_cast<int>(
      Mix64(kStealSeed ^ static_cast<uint64_t>(worker_id)) %
      static_cast<uint64_t>(n - 1));
  for (int k = 0; k < n - 1; ++k) {
    const int victim = (worker_id + 1 + (start + k) % (n - 1)) % n;
    if (StealFrom(victim, item)) {
      *stolen = true;
      ReleaseQueueSlot();
      return true;
    }
  }
  return false;
}

// -- Queue bound ----------------------------------------------------

Status TaskExecutor::ReserveQueueSlot(bool blocking) {
  for (;;) {
    if (stopping_.load() || draining_.load()) {
      return Status::FailedPrecondition("executor shut down");
    }
    const size_t max = max_queue_depth_.load();
    const size_t depth = total_queued_.fetch_add(1) + 1;
    if (max == 0 || depth <= max) {
      // CAS-max the pool-wide high-water mark. Computed from the shared
      // depth counter at reservation time, so concurrent submitters
      // cannot race it back to a stale per-deque sample.
      int64_t seen = queue_high_water_.load(std::memory_order_relaxed);
      while (static_cast<int64_t>(depth) > seen &&
             !queue_high_water_.compare_exchange_weak(
                 seen, static_cast<int64_t>(depth),
                 std::memory_order_relaxed)) {
      }
      return Status::Ok();
    }
    total_queued_.fetch_sub(1);
    if (!blocking) {
      return Status::ResourceExhausted("executor queue full (max_queue_depth " +
                                       std::to_string(max) + ")");
    }
    // Park until a worker frees space. The predicate re-reads
    // max_queue_depth_: a concurrent SetMaxQueueDepth may have grown
    // the bound or removed it entirely (0 = unbounded) while we slept.
    // (The predicate touches only atomics, so it may stay a lambda —
    // guarded members in a wait predicate would need a manual loop.)
    {
      MutexLock lock(space_mutex_);
      space_waiters_.fetch_add(1);
      space_cv_.Wait(space_mutex_, [this] {
        if (stopping_.load() || draining_.load()) return true;
        const size_t bound = max_queue_depth_.load();
        return bound == 0 || total_queued_.load() < bound;
      });
      space_waiters_.fetch_sub(1);
    }
  }
}

void TaskExecutor::ReleaseQueueSlot() {
  total_queued_.fetch_sub(1);
  if (space_waiters_.load() > 0) {
    // Empty critical section: the notify may not land between a
    // waiter's predicate check and its sleep.
    { MutexLock lock(space_mutex_); }
    space_cv_.NotifyAll();
  }
  if (queue_depth_metric_ != nullptr) {
    queue_depth_metric_->Set(static_cast<double>(total_queued_.load()));
  }
}

// -- Worker parking -------------------------------------------------

void TaskExecutor::NotifyWorkers() {
  // Cheap fast path: under load no worker is parked and the push needs
  // no lock at all. A worker only parks after announcing itself in
  // idle_workers_ and then re-scanning every deque, so a push that
  // reads idle_workers_ == 0 here is guaranteed to be seen by that
  // final re-scan (both sides are seq_cst).
  if (idle_workers_.load() == 0) return;
  {
    MutexLock lock(wake_mutex_);
    ++work_epoch_;
  }
  // Any single worker can run any item (it will steal it), so waking
  // one is enough per pushed item.
  work_cv_.NotifyOne();
}

void TaskExecutor::WorkerLoop(int worker_id) {
  tls_worker.executor = this;
  tls_worker.worker_id = worker_id;
  WorkerContext context;
  context.worker_id = worker_id;
  context.service = services_[static_cast<size_t>(worker_id)].get();
  WorkItem item;
  bool stolen = false;
  for (;;) {
    if (stopping_.load()) return;
    if (FindWork(worker_id, &item, &stolen)) {
      Execute(item, context, worker_id, stolen);
      continue;
    }
    if (draining_.load()) {
      // Shutdown() drains: keep scanning (own deque + steals) until
      // every deque is empty pool-wide, then exit. total_queued_ covers
      // items other workers still hold queued.
      if (total_queued_.load() == 0) return;
      std::this_thread::yield();
      continue;
    }
    // Park (eventcount): announce idleness, snapshot the epoch, re-scan
    // once more, and only then sleep. A submitter that missed the
    // announcement pushed before our re-scan (so we find its item); one
    // that saw it bumps the epoch under wake_mutex_, which either
    // changes our snapshot before we sleep or wakes us after.
    idle_workers_.fetch_add(1);
    uint64_t epoch = 0;
    {
      MutexLock lock(wake_mutex_);
      epoch = work_epoch_;
    }
    if (FindWork(worker_id, &item, &stolen)) {
      idle_workers_.fetch_sub(1);
      Execute(item, context, worker_id, stolen);
      continue;
    }
    if (!stopping_.load() && !draining_.load()) {
      // Manual wait loop (not a predicate lambda): work_epoch_ is
      // GUARDED_BY(wake_mutex_), and the capability analysis can only
      // see the lock is held when the read sits in this annotated
      // scope rather than inside a closure.
      MutexLock lock(wake_mutex_);
      while (work_epoch_ == epoch && !stopping_.load() &&
             !draining_.load()) {
        work_cv_.Wait(wake_mutex_);
      }
    }
    idle_workers_.fetch_sub(1);
  }
}

void TaskExecutor::Execute(WorkItem& item, WorkerContext& context,
                           int worker_id, bool stolen) {
  // Execute outside any lock: the closure is the expensive part, and
  // the executor adds no state of its own to the result — placement
  // (own deque or stolen) cannot change what a deterministic task
  // computes. The latency clock reads happen only when telemetry is
  // wired.
  const bool timed = task_latency_metric_ != nullptr;
  Timer task_timer;
  if (timed) task_timer.Start();
  ErasedResult result = item.task(context);
  if (timed) {
    task_latency_metric_->Record(task_timer.ElapsedMillis() * 1000.0);
  }
  if (tasks_executed_metric_ != nullptr) tasks_executed_metric_->Increment();
  if (stolen) {
    if (tasks_stolen_metric_ != nullptr) tasks_stolen_metric_->Increment();
  } else {
    if (tasks_local_metric_ != nullptr) tasks_local_metric_->Increment();
  }
  WorkerCounters& counters = *counters_[static_cast<size_t>(worker_id)];
  counters.executed.fetch_add(1, std::memory_order_relaxed);
  (stolen ? counters.stolen : counters.local)
      .fetch_add(1, std::memory_order_relaxed);
  if (!result.ok()) {
    counters.failed.fetch_add(1, std::memory_order_relaxed);
  }

  if (item.job != nullptr) {
    item.job->results[item.index] = std::move(result);
    if (item.job->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last item of the batch: wake the RunAll caller. Empty critical
      // section so the notify cannot land inside its check-then-sleep
      // window.
      { MutexLock lock(done_mutex_); }
      done_cv_.NotifyAll();
    }
  } else {
    CompleteTicket(item.ticket, std::move(result));
  }
  // Drop the closure's captures promptly; the WorkItem slot is reused.
  item.task = ErasedTask();
}

// -- Tickets --------------------------------------------------------

TaskExecutor::TicketSlot& TaskExecutor::Slot(uint32_t index) {
  return slot_chunks_[index / kSlotsPerChunk][index % kSlotsPerChunk];
}

std::optional<uint32_t> TaskExecutor::PopFreeSlot() {
  uint64_t head = free_head_.load();
  for (;;) {
    const uint32_t encoded = static_cast<uint32_t>(head & 0xffffffffu);
    if (encoded == 0) return std::nullopt;
    const uint32_t next =
        Slot(encoded - 1).next_free.load(std::memory_order_relaxed);
    // Bump the tag in the high bits: a concurrent pop+push of the same
    // head index cannot make a stale (head, next) pair win the CAS.
    const uint64_t next_head = (((head >> 32) + 1) << 32) | next;
    if (free_head_.compare_exchange_weak(head, next_head)) {
      return encoded - 1;
    }
  }
}

void TaskExecutor::PushFreeSlot(uint32_t index) {
  TicketSlot& slot = Slot(index);
  uint64_t head = free_head_.load();
  for (;;) {
    slot.next_free.store(static_cast<uint32_t>(head & 0xffffffffu),
                         std::memory_order_relaxed);
    const uint64_t next_head =
        (head & 0xffffffff00000000ull) | (index + 1);
    if (free_head_.compare_exchange_weak(head, next_head)) return;
  }
}

Result<uint64_t> TaskExecutor::AcquireTicketSlot() {
  std::optional<uint32_t> index = PopFreeSlot();
  if (!index.has_value()) {
    MutexLock lock(grow_mutex_);
    index = PopFreeSlot();  // Another thread may have grown or freed.
    if (!index.has_value()) {
      if (slot_chunks_.size() >= kMaxSlotChunks) {
        return Status::ResourceExhausted("ticket table exhausted");
      }
      const uint32_t base = num_slots_.load();
      slot_chunks_.push_back(std::make_unique<TicketSlot[]>(kSlotsPerChunk));
      // Publish the new bound only after the chunk pointer is in place;
      // decoders bound-check against num_slots_ before indexing.
      num_slots_.store(base + kSlotsPerChunk);
      // Keep the first slot, free-list the rest.
      for (uint32_t i = base + 1; i < base + kSlotsPerChunk; ++i) {
        PushFreeSlot(i);
      }
      index = base;
    }
  }
  TicketSlot& slot = Slot(*index);
  slot.result.reset();
  const uint32_t generation = GenOf(slot.control.load());
  slot.control.store(MakeControl(generation, TicketSlot::kPending));
  pending_tickets_.fetch_add(1);
  return (static_cast<uint64_t>(generation) << 32) |
         static_cast<uint64_t>(*index + 1);
}

void TaskExecutor::CompleteTicket(uint64_t ticket, ErasedResult result) {
  const uint32_t index = static_cast<uint32_t>(ticket & 0xffffffffu) - 1;
  const uint32_t generation = static_cast<uint32_t>(ticket >> 32);
  TicketSlot& slot = Slot(index);
  slot.result.emplace(std::move(result));
  // Publish: the control store is seq_cst, so a claimer's winning CAS
  // sees the result emplaced above.
  slot.control.store(MakeControl(generation, TicketSlot::kReady));
  if (done_waiters_.load() > 0) {
    { MutexLock lock(done_mutex_); }
    done_cv_.NotifyAll();
  }
}

TaskExecutor::ErasedResult TaskExecutor::ConsumeClaimedSlot(
    uint32_t index, uint32_t generation) {
  TicketSlot& slot = Slot(index);
  ErasedResult result = std::move(*slot.result);
  slot.result.reset();
  // Bump the generation as the slot frees: any outstanding copy of the
  // consumed id now fails the generation embedded in claim CASes.
  slot.control.store(MakeControl(generation + 1, TicketSlot::kFree));
  PushFreeSlot(index);
  pending_tickets_.fetch_sub(1);
  return result;
}

Result<uint64_t> TaskExecutor::SubmitErased(ErasedTask task, bool blocking) {
  STREAMBID_RETURN_IF_ERROR(ReserveQueueSlot(blocking));
  Result<uint64_t> ticket = AcquireTicketSlot();
  if (!ticket.ok()) {
    ReleaseQueueSlot();
    return ticket.status();
  }
  WorkItem item;
  item.task = std::move(task);
  item.ticket = ticket.value();
  PushToDeque(PickSubmitTarget(), std::move(item));
  return ticket;
}

std::optional<TaskExecutor::ErasedResult> TaskExecutor::PollErased(
    uint64_t ticket) {
  const uint32_t encoded = static_cast<uint32_t>(ticket & 0xffffffffu);
  const uint32_t generation = static_cast<uint32_t>(ticket >> 32);
  if (encoded == 0 || encoded > num_slots_.load()) {
    return ErasedResult(
        Status::NotFound("unknown ticket: " + std::to_string(ticket)));
  }
  TicketSlot& slot = Slot(encoded - 1);
  for (;;) {
    uint64_t control = slot.control.load();
    if (GenOf(control) != generation) {
      // Consumed and recycled (or never this ticket's generation).
      return ErasedResult(
          Status::NotFound("unknown ticket: " + std::to_string(ticket)));
    }
    if (StateOf(control) == TicketSlot::kPending) {
      return std::nullopt;  // Still queued or running.
    }
    if (StateOf(control) == TicketSlot::kReady) {
      // The expected value carries our generation, so the CAS can only
      // capture this ticket's own result — never a recycled slot's.
      if (slot.control.compare_exchange_strong(
              control, MakeControl(generation, TicketSlot::kClaimed))) {
        return ConsumeClaimedSlot(encoded - 1, generation);
      }
      continue;  // Lost a race; re-read the control word.
    }
    // kClaimed (a concurrent consumer won) or kFree mid-recycle.
    return ErasedResult(Status::NotFound("ticket already consumed: " +
                                         std::to_string(ticket)));
  }
}

TaskExecutor::ErasedResult TaskExecutor::WaitErased(uint64_t ticket) {
  const uint32_t encoded = static_cast<uint32_t>(ticket & 0xffffffffu);
  const uint32_t generation = static_cast<uint32_t>(ticket >> 32);
  if (encoded == 0 || encoded > num_slots_.load()) {
    return Status::NotFound("unknown ticket: " + std::to_string(ticket));
  }
  TicketSlot& slot = Slot(encoded - 1);
  for (;;) {
    uint64_t control = slot.control.load();
    if (GenOf(control) != generation) {
      return Status::NotFound("unknown ticket: " + std::to_string(ticket));
    }
    switch (StateOf(control)) {
      case TicketSlot::kReady:
        if (slot.control.compare_exchange_strong(
                control, MakeControl(generation, TicketSlot::kClaimed))) {
          return ConsumeClaimedSlot(encoded - 1, generation);
        }
        continue;
      case TicketSlot::kPending: {
        MutexLock lock(done_mutex_);
        done_waiters_.fetch_add(1);
        done_cv_.Wait(done_mutex_, [&] {
          const uint64_t now = slot.control.load();
          return GenOf(now) != generation ||
                 StateOf(now) != TicketSlot::kPending;
        });
        done_waiters_.fetch_sub(1);
        continue;  // Re-run the claim protocol.
      }
      default:
        // kClaimed / kFree at our generation: a concurrent Poll/Wait of
        // the same ticket consumed it first.
        return Status::NotFound("ticket already consumed: " +
                                std::to_string(ticket));
    }
  }
}

Result<std::vector<TaskExecutor::ErasedResult>> TaskExecutor::RunAllErased(
    std::vector<ErasedTask> tasks) {
  BatchJob job;
  job.results.resize(tasks.size());
  job.remaining.store(tasks.size());
  Status failure = Status::Ok();
  for (size_t i = 0; i < tasks.size(); ++i) {
    const Status status = ReserveQueueSlot(/*blocking=*/true);
    if (!status.ok()) {
      // Lifecycle raced the batch (a documented contract violation).
      // Account the unpushed tail so `remaining` still drains to zero,
      // then wait out the pushed head below so no queued item outlives
      // `job`, and surface the error.
      job.remaining.fetch_sub(tasks.size() - i);
      failure = status;
      break;
    }
    WorkItem item;
    item.task = std::move(tasks[i]);
    item.job = &job;
    item.index = i;
    // Workers drain as items land (PushToDeque wakes them), which is
    // what lets a batch larger than a bounded queue make progress while
    // we are still pushing.
    PushToDeque(PickSubmitTarget(), std::move(item));
  }
  {
    MutexLock lock(done_mutex_);
    done_cv_.Wait(done_mutex_, [&job] { return job.remaining.load() == 0; });
  }
  STREAMBID_RETURN_IF_ERROR(failure);
  std::vector<ErasedResult> results;
  results.reserve(job.results.size());
  for (std::optional<ErasedResult>& slot : job.results) {
    results.push_back(std::move(*slot));
  }
  return results;
}

Status TaskExecutor::SetMaxQueueDepth(int depth) {
  if (depth < 0) {
    return Status::InvalidArgument("max queue depth must be >= 0");
  }
  max_queue_depth_.store(static_cast<size_t>(depth));
  // Growing (or unbounding) may free blocked producers; waking on a
  // shrink is harmless — the wait predicate re-checks the new bound.
  {
    MutexLock lock(space_mutex_);
  }
  space_cv_.NotifyAll();
  return Status::Ok();
}

int TaskExecutor::max_queue_depth() const {
  return static_cast<int>(max_queue_depth_.load());
}

Status TaskExecutor::Shutdown() {
  if (shutdown_called_.exchange(true)) {
    return Status::FailedPrecondition("executor already shut down");
  }
  draining_.store(true);
  {
    MutexLock lock(wake_mutex_);
    ++work_epoch_;
  }
  work_cv_.NotifyAll();
  {
    MutexLock lock(space_mutex_);
  }
  space_cv_.NotifyAll();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  return Status::Ok();
}

int TaskExecutor::pending_tasks() const { return pending_tickets_.load(); }

TaskExecutorStats TaskExecutor::StatsReport() const {
  TaskExecutorStats stats;
  stats.submitted =
      submitted_.load(std::memory_order_relaxed) -
      submitted_baseline_.load(std::memory_order_relaxed);
  stats.queue_high_water = queue_high_water_.load(std::memory_order_relaxed);
  stats.tasks_per_worker.reserve(counters_.size());
  stats.steals_per_worker.reserve(counters_.size());
  for (const std::unique_ptr<WorkerCounters>& counters : counters_) {
    const int64_t executed =
        counters->executed.load(std::memory_order_relaxed) -
        counters->executed_baseline.load(std::memory_order_relaxed);
    const int64_t stolen =
        counters->stolen.load(std::memory_order_relaxed) -
        counters->stolen_baseline.load(std::memory_order_relaxed);
    stats.tasks_per_worker.push_back(executed);
    stats.steals_per_worker.push_back(stolen);
    stats.executed += executed;
    stats.stolen += stolen;
    stats.local_hits += counters->local.load(std::memory_order_relaxed) -
                        counters->local_baseline.load(std::memory_order_relaxed);
    stats.failed += counters->failed.load(std::memory_order_relaxed) -
                    counters->failed_baseline.load(std::memory_order_relaxed);
  }
  return stats;
}

void TaskExecutor::ResetStats() {
  // Baselines, not zeroing: a worker finishing a task mid-reset keeps
  // its increment — it lands in the new window instead of vanishing
  // (zeroing could otherwise eat a racing fetch_add and undercount
  // `executed` forever).
  submitted_baseline_.store(submitted_.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
  queue_high_water_.store(static_cast<int64_t>(total_queued_.load()),
                          std::memory_order_relaxed);
  for (const std::unique_ptr<WorkerCounters>& counters : counters_) {
    counters->executed_baseline.store(
        counters->executed.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    counters->failed_baseline.store(
        counters->failed.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    counters->stolen_baseline.store(
        counters->stolen.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    counters->local_baseline.store(
        counters->local.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
}

}  // namespace streambid::cluster
