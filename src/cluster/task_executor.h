// Copyright 2026 The streambid Authors
// The generic task runtime of the cluster layer: a fixed pool of
// persistent worker threads that runs arbitrary closures, not just
// admission auctions. Each worker owns a WorkerContext — its worker id
// plus its own AdmissionService (and therefore its own AuctionContext
// scratch arena) — so admission work scheduled here still honors the
// "shard one service per thread" rule, while non-admission stages
// (auction preparation, engine execution, billing) share the same pool
// instead of spawning ad-hoc threads.
//
// Scheduling: per-worker deques with work stealing. Every worker owns a
// ring-buffer deque under its own narrow lock (contention is striped
// per worker instead of serialized on one pool mutex). The owner pushes
// and pops LIFO at the bottom of its own deque — tasks submitted from
// inside a task land on the submitting worker and run cache-hot — while
// external submissions are spread round-robin across the deques. A
// worker that finds its own deque empty steals FIFO from the front of a
// victim's deque, scanning the other workers in a fixed per-worker
// order, so the oldest queued work is what migrates. Global
// coordination (the queue bound, the idle-worker eventcount, ticket
// completion) is atomics + two narrow mutex/condvar pairs; nothing on
// the Submit→execute path allocates in steady state: tasks travel in
// small-buffer-optimized InlineFunction slots, ring slots are recycled
// in place, and ticket completion slots come from a lock-free free list
// (generation-tagged against ABA/stale handles).
//
// Determinism contract: the executor adds none of its own randomness to
// results. A task's result is whatever the closure computes; closures
// that are pure functions of their captures (the admission requests'
// per-request RNG streams, a shard's private state) produce identical
// results at every pool size, placement, and interleaving — stealing
// only moves *where* a task runs, never what it computes. That is what
// lets the ClusterCenter run whole periods through this pool and still
// replay byte-identically at every pool size (a pool of one never
// steals, so it is the single-queue reference).
//
// Surfaces:
//  - Submit / TrySubmit -> Ticket<T>: async submission with typed
//    completion handles. Submit blocks for space when the queue is
//    bounded; TrySubmit returns kResourceExhausted instead (the
//    backpressure path). The bound is pool-wide (the sum of all deque
//    depths), not per deque.
//  - Poll / Wait (Ticket<T>): completion draining. Tickets are issued
//    once and consumed once; errors inside the closure come back as the
//    ticket's Result<T>.
//  - RunAll: blocking batch fan-out, results positionally aligned; the
//    lowest-index failure is returned (all tasks still run).
//  - Shutdown(): drains every queued task (stealers help empty every
//    deque), then stops the workers. Destruction without Shutdown
//    discards queued work (fast teardown).
//  - StatsReport(): per-worker task counts, steal/local-hit counts, and
//    the pool-wide queue-depth high-water mark, the observability
//    surface of the generic runtime.

#ifndef STREAMBID_CLUSTER_TASK_EXECUTOR_H_
#define STREAMBID_CLUSTER_TASK_EXECUTOR_H_

#include <any>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/inline_function.h"
#include "common/lock_order.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "service/admission_service.h"

namespace streambid::telemetry {
class Counter;
class Gauge;
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
  /// Maximum queued (not yet running) tasks across all worker deques; 0
  /// means unbounded. When the queue is full, Submit/RunAll block for
  /// space and TrySubmit returns kResourceExhausted — the backpressure
  /// contract for async producers.
  int max_queue_depth = 0;
  /// Optional telemetry sink. When set, the executor publishes
  /// executor_tasks_executed / executor_tasks_stolen /
  /// executor_tasks_local / executor_queue_depth /
  /// executor_task_latency, and each worker's AdmissionService records
  /// its per-admission series into the same registry. Null disables all
  /// of it at zero hot-path cost. Must outlive the executor.
  telemetry::MetricsRegistry* metrics = nullptr;
};

/// Typed completion handle. Tickets are issued once and consumed once:
/// a successful Poll/Wait removes the result, and the T parameter binds
/// the handle to its task's result type at compile time.
template <typename T>
struct Ticket {
  uint64_t id = 0;
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
  /// Tasks accepted into the queue (async submissions + batch items).
  int64_t submitted = 0;
  /// Tasks a worker finished executing (sum of tasks_per_worker).
  int64_t executed = 0;
  /// Executed tasks whose closure returned an error Result.
  int64_t failed = 0;
  /// Executed tasks the worker stole from another worker's deque.
  int64_t stolen = 0;
  /// Executed tasks popped from the worker's own deque (local hits;
  /// local + stolen == executed).
  int64_t local_hits = 0;
  /// Highest pool-wide queued-task count observed (maintained on every
  /// reservation against the shared depth counter, so concurrent
  /// submitters can't race it back to a stale low value). Against a
  /// bounded queue this approaches max_queue_depth under backpressure;
  /// unbounded, it shows how deep async producers actually run ahead.
  int64_t queue_high_water = 0;
  /// Tasks executed per worker, indexed by worker id. The vector length
  /// is always num_threads(): work landing anywhere else than these
  /// workers is structurally impossible, which is the "no threads
  /// outside the pool" observability hook the cluster tests assert.
  std::vector<int64_t> tasks_per_worker;
  /// Steals per worker, indexed by the *thief's* worker id.
  std::vector<int64_t> steals_per_worker;
};

/// Thread-pool task runtime. Thread-safe: any thread may submit tasks
/// and poll tickets concurrently. Tasks themselves may submit further
/// tasks (they land on the submitting worker's own deque and run LIFO,
/// or get stolen if the owner stays busy), but from inside a task use
/// TrySubmit and never block on the pool: a task Wait()ing on a ticket
/// of the same executor — or a blocking Submit against a full bounded
/// queue, which parks the worker that would have drained it — can
/// deadlock the pool. Shutdown and destruction must happen-after every
/// concurrent Submit/Poll/Wait/RunAll call has returned.
class TaskExecutor {
 public:
  /// A unit of work: runs on some worker, sees that worker's context,
  /// reports success or failure through Result<T>. T must be movable
  /// and copy-constructible (results travel through the type-erased
  /// completion slot). Deliberately a copyable std::function — callers
  /// build task vectors they reuse; the executor re-wraps it into its
  /// own move-only inline slot at submission.
  template <typename T>
  using Task = std::function<Result<T>(WorkerContext&)>;

  explicit TaskExecutor(const ExecutorOptions& options = {});
  /// Discards queued work (running tasks finish) and completes every
  /// unconsumed ticket with kFailedPrecondition so a straggling Wait
  /// unblocks. For a drained teardown call Shutdown() first.
  ~TaskExecutor();

  TaskExecutor(const TaskExecutor&) = delete;
  TaskExecutor& operator=(const TaskExecutor&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Worker w's admission service — exposed so callers can validate
  /// requests against the same registry the workers execute with.
  /// Const registry reads (Validate, HasMechanism, MechanismNames) are
  /// safe concurrently with tasks running on worker w; anything that
  /// can touch the service's mutable state (Admit and friends, which
  /// reuse the AuctionContext scratch) must not race them.
  service::AdmissionService& worker_service(int worker_id) {
    return *services_[static_cast<size_t>(worker_id)];
  }
  const service::AdmissionService& worker_service(int worker_id) const {
    return *services_[static_cast<size_t>(worker_id)];
  }

  /// Queues `task`; the returned ticket completes on some worker. When
  /// the queue is bounded and full, blocks until space frees up.
  /// kFailedPrecondition after Shutdown.
  template <typename T>
  Result<Ticket<T>> Submit(Task<T> task) {
    STREAMBID_ASSIGN_OR_RETURN(
        const uint64_t id,
        SubmitErased(Erase<T>(std::move(task)), /*blocking=*/true));
    return Ticket<T>{id};
  }

  /// Non-blocking Submit: kResourceExhausted when the bounded queue is
  /// full, so async producers get backpressure instead of unbounded
  /// queue growth.
  template <typename T>
  Result<Ticket<T>> TrySubmit(Task<T> task) {
    STREAMBID_ASSIGN_OR_RETURN(
        const uint64_t id,
        SubmitErased(Erase<T>(std::move(task)), /*blocking=*/false));
    return Ticket<T>{id};
  }

  /// Non-blocking completion check: empty while the ticket is still
  /// queued or running; otherwise the result (or the closure's error),
  /// which is removed — a second Poll of the same ticket is kNotFound.
  template <typename T>
  std::optional<Result<T>> Poll(Ticket<T> ticket) {
    std::optional<Result<std::any>> erased = PollErased(ticket.id);
    if (!erased.has_value()) return std::nullopt;
    return Unerase<T>(std::move(*erased));
  }

  /// Blocks until the ticket completes and returns its result (removing
  /// it, as Poll does). kNotFound for never-issued or already-consumed
  /// tickets. Never hangs across Shutdown (drained results stay
  /// available) or destruction (pending tickets error out).
  template <typename T>
  Result<T> Wait(Ticket<T> ticket) {
    return Unerase<T>(WaitErased(ticket.id));
  }

  /// Runs every task and blocks until all finish; results are
  /// positionally aligned with the tasks. All tasks run even when some
  /// fail; the lowest-index failure is returned. Must be called from
  /// outside the pool.
  template <typename T>
  Result<std::vector<T>> RunAll(std::vector<Task<T>> tasks) {
    std::vector<ErasedTask> erased;
    erased.reserve(tasks.size());
    for (Task<T>& task : tasks) {
      erased.push_back(Erase<T>(std::move(task)));
    }
    STREAMBID_ASSIGN_OR_RETURN(std::vector<Result<std::any>> results,
                               RunAllErased(std::move(erased)));
    std::vector<T> out;
    out.reserve(results.size());
    for (Result<std::any>& result : results) {
      STREAMBID_ASSIGN_OR_RETURN(T value, Unerase<T>(std::move(result)));
      out.push_back(std::move(value));
    }
    return out;
  }

  /// Re-bounds the queue at runtime; the admission gate's throughput
  /// probe calls this to keep executor backlog proportional to the
  /// concurrency it has measured the system can absorb. `depth` 0 means
  /// unbounded; negative is kInvalidArgument. Thread-safe: growing (or
  /// unbounding) wakes producers blocked in Submit/RunAll; shrinking
  /// below the current backlog never drops queued tasks — the queue
  /// just refuses new pushes until workers drain it under the new cap.
  Status SetMaxQueueDepth(int depth);

  /// Current queue bound (0 = unbounded).
  int max_queue_depth() const;

  /// Drains the queue (every already-submitted task runs to completion)
  /// and joins the workers. Unconsumed tickets stay pollable afterwards;
  /// new submissions fail with kFailedPrecondition. A second Shutdown is
  /// kFailedPrecondition. Must not race in-flight RunAll calls.
  Status Shutdown();

  /// Outstanding (submitted, not yet consumed) tickets.
  int pending_tasks() const;

  /// Copies the generic runtime counters accumulated so far.
  TaskExecutorStats StatsReport() const;

  /// Clears the counters (benches reset between phases). Coherent with
  /// concurrently-finishing tasks: the reset records per-counter
  /// baselines instead of zeroing the atomics, so an increment racing
  /// the reset is never lost — it is simply attributed to the new
  /// window.
  void ResetStats();

 private:
  using ErasedResult = Result<std::any>;
  /// The queue-resident task slot: move-only, small-buffer-optimized.
  /// The Erase<T> wrapper (one captured std::function) always fits
  /// inline, so queuing a task never heap-allocates.
  using ErasedTask = InlineFunction<ErasedResult(WorkerContext&), 64>;

  /// Shared state of one RunAll call. Results are collected
  /// positionally; the submitting thread waits on done_cv_ until
  /// `remaining` drains to zero.
  struct BatchJob {
    std::vector<std::optional<ErasedResult>> results;
    std::atomic<size_t> remaining{0};
  };
  /// One queued unit: an async ticket or one index of a batch job.
  struct WorkItem {
    ErasedTask task;
    uint64_t ticket = 0;      ///< Valid when job == nullptr.
    BatchJob* job = nullptr;  ///< Valid for batch items.
    size_t index = 0;         ///< Position within the batch.
  };

  /// One worker's deque: a ring buffer of WorkItems under its own
  /// narrow lock. The owner pushes/pops at the bottom (LIFO), thieves
  /// take from the top (FIFO — the oldest work migrates). The lock is
  /// held only for the O(1) slot move, so contention is striped per
  /// worker rather than pooled; cache-line alignment keeps neighboring
  /// deques from false-sharing.
  struct alignas(64) WorkerDeque {
    Mutex mutex ACQUIRED_AFTER(kExecutorRankBoundary) =
        Mutex{LockRank::kExecutorDeque, "executor/deque"};
    /// Circular storage; size() == capacity.
    std::vector<WorkItem> ring GUARDED_BY(mutex);
    /// Index of the oldest item (steal end).
    size_t top GUARDED_BY(mutex) = 0;
    /// Items currently queued.
    size_t count GUARDED_BY(mutex) = 0;
  };

  /// One ticket's completion slot, recycled through a lock-free free
  /// list. The ticket id embeds (generation << 32 | slot_index + 1),
  /// and the slot packs the same generation next to its state in one
  /// atomic control word: a consume/recycle bumps the generation, so a
  /// stale handle's claim CAS — which carries the expected generation —
  /// can never capture a recycled slot holding a stranger's result.
  struct TicketSlot {
    static constexpr uint32_t kFree = 0;     ///< On the free list.
    static constexpr uint32_t kPending = 1;  ///< Queued or running.
    static constexpr uint32_t kReady = 2;    ///< Result present.
    static constexpr uint32_t kClaimed = 3;  ///< A consumer won the CAS.
    /// (generation << 32) | state — see MakeControl/GenOf/StateOf.
    std::atomic<uint64_t> control{kFree};
    /// Free-list link: the encoded (index + 1) of the next free slot,
    /// 0 at the end. Atomic only to keep the lock-free pop's benign
    /// speculative read TSan-clean; the tagged-head CAS carries the
    /// actual synchronization.
    std::atomic<uint32_t> next_free{0};
    /// Written by the completing worker while state is kPending, moved
    /// out by the consumer that won the kReady->kClaimed CAS.
    std::optional<ErasedResult> result;
  };
  static constexpr uint64_t MakeControl(uint32_t generation,
                                        uint32_t state) {
    return (static_cast<uint64_t>(generation) << 32) | state;
  }
  static constexpr uint32_t GenOf(uint64_t control) {
    return static_cast<uint32_t>(control >> 32);
  }
  static constexpr uint32_t StateOf(uint64_t control) {
    return static_cast<uint32_t>(control & 0xffffffffu);
  }

  /// Wraps a typed task so the queue can hold it: the value travels as
  /// std::any, the error as the task's own Status.
  template <typename T>
  static ErasedTask Erase(Task<T> task) {
    return [task = std::move(task)](WorkerContext& context) -> ErasedResult {
      Result<T> result = task(context);
      if (!result.ok()) return result.status();
      return std::any(std::move(result).value());
    };
  }

  /// Recovers the typed result. A Ticket<T> can only be minted by
  /// Submit<T>, so the cast matches by construction; a mismatch (a
  /// forged ticket id reused across types) is reported as kInternal
  /// rather than thrown.
  template <typename T>
  static Result<T> Unerase(ErasedResult erased) {
    if (!erased.ok()) return erased.status();
    std::any value = std::move(erased).value();
    T* typed = std::any_cast<T>(&value);
    if (typed == nullptr) {
      return Status::Internal("ticket result type mismatch");
    }
    return std::move(*typed);
  }

  Result<uint64_t> SubmitErased(ErasedTask task, bool blocking);
  std::optional<ErasedResult> PollErased(uint64_t ticket);
  ErasedResult WaitErased(uint64_t ticket);
  Result<std::vector<ErasedResult>> RunAllErased(
      std::vector<ErasedTask> tasks);
  void WorkerLoop(int worker_id);

  // -- Queue bound (pool-wide, atomic) ------------------------------
  /// Reserves one unit of queue capacity against the shared bound,
  /// blocking for space (or failing with kResourceExhausted when
  /// non-blocking) and failing with kFailedPrecondition once the
  /// executor stops accepting work. Maintains queue_high_water_.
  Status ReserveQueueSlot(bool blocking);
  /// Returns one unit of capacity (after a pop) and wakes a parked
  /// producer if any are waiting.
  void ReleaseQueueSlot();

  // -- Deques -------------------------------------------------------
  /// Pushes to the bottom of `worker_id`'s deque (capacity already
  /// reserved) and wakes an idle worker if one is parked.
  void PushToDeque(int worker_id, WorkItem item);
  /// Chooses the target deque for an external or in-task submission.
  int PickSubmitTarget();
  /// Owner pop: bottom (LIFO) of the worker's own deque.
  bool PopOwn(int worker_id, WorkItem* item);
  /// Thief pop: top (FIFO) of `victim`'s deque.
  bool StealFrom(int victim, WorkItem* item);
  /// One full scan: own deque first, then the victims in this worker's
  /// fixed order.
  bool FindWork(int worker_id, WorkItem* item, bool* stolen);

  // -- Parking (eventcount) -----------------------------------------
  /// Wakes parked workers after a push; cheap no-op when nobody is
  /// parked (the common case under load).
  void NotifyWorkers();

  // -- Tickets ------------------------------------------------------
  /// Pops a free slot (or grows the table) and arms it as kPending.
  /// Returns the encoded ticket id.
  Result<uint64_t> AcquireTicketSlot();
  TicketSlot& Slot(uint32_t index);
  std::optional<uint32_t> PopFreeSlot();
  void PushFreeSlot(uint32_t index);
  /// Stores `result` into the ticket's slot and wakes Wait()ers.
  void CompleteTicket(uint64_t ticket, ErasedResult result);
  /// Consumes the slot the caller just claimed (kClaimed): moves the
  /// result out, bumps the generation, and recycles the slot.
  ErasedResult ConsumeClaimedSlot(uint32_t index, uint32_t generation);

  void Execute(WorkItem& item, WorkerContext& context, int worker_id,
               bool stolen);
  /// Destructor sweep: fails queued-but-never-run tickets and any
  /// still-pending slots with kFailedPrecondition.
  void FailPendingWork();

  std::vector<std::unique_ptr<service::AdmissionService>> services_;
  std::vector<std::unique_ptr<WorkerDeque>> deques_;
  std::vector<std::thread> workers_;

  // -- Lifecycle ----------------------------------------------------
  std::atomic<bool> stopping_{false};  ///< Destructor: discard queued work.
  std::atomic<bool> draining_{false};  ///< Shutdown(): drain, then stop.
  std::atomic<bool> shutdown_called_{false};

  // -- Queue bound + submit cursor ----------------------------------
  std::atomic<size_t> max_queue_depth_{0};  ///< 0 = unbounded.
  std::atomic<size_t> total_queued_{0};     ///< Sum of all deque depths.
  std::atomic<uint64_t> submit_cursor_{0};  ///< Round-robin placement.
  /// Pure condvar pairing mutex: the space-waiter protocol's state
  /// (max_queue_depth_, total_queued_) is atomic; the lock only closes
  /// the check-then-sleep window.
  Mutex space_mutex_ ACQUIRED_AFTER(wake_mutex_) =
      Mutex{LockRank::kExecutorSpace, "executor/space"};
  CondVar space_cv_;  ///< Signals queue space freed.
  std::atomic<int> space_waiters_{0};

  // -- Worker parking (eventcount) ----------------------------------
  Mutex wake_mutex_ ACQUIRED_AFTER(grow_mutex_) =
      Mutex{LockRank::kExecutorWake, "executor/wake"};
  CondVar work_cv_;  ///< Signals queued work / teardown.
  uint64_t work_epoch_ GUARDED_BY(wake_mutex_) = 0;
  std::atomic<int> idle_workers_{0};

  // -- Ticket table -------------------------------------------------
  static constexpr size_t kSlotsPerChunk = 256;
  static constexpr size_t kMaxSlotChunks = 1 << 14;  ///< ~4.2M tickets.
  /// Chunked so grown slots never move (lock-free readers hold raw
  /// references across the growth); the outer vector's capacity is
  /// reserved up front so push_back never reallocates either.
  /// NOT GUARDED_BY(grow_mutex_) although growth holds it: readers
  /// index the vector lock-free by design, ordered by the num_slots_
  /// publication protocol (chunk pointer stored before the bound) plus
  /// the up-front capacity reservation — a protocol the capability
  /// analysis cannot express, so the invariant stays prose here.
  std::vector<std::unique_ptr<TicketSlot[]>> slot_chunks_;
  std::atomic<uint32_t> num_slots_{0};
  /// Serializes table growth only.
  Mutex grow_mutex_ ACQUIRED_AFTER(kExecutorRankBoundary) =
      Mutex{LockRank::kExecutorGrow, "executor/grow"};
  /// Treiber free stack: low 32 bits encode (index + 1) of the head (0
  /// = empty), high 32 bits are a pop tag against ABA.
  std::atomic<uint64_t> free_head_{0};
  std::atomic<int> pending_tickets_{0};
  /// Pure condvar pairing mutex (completion state is the atomic slot
  /// control words); closes the Wait/RunAll check-then-sleep window.
  Mutex done_mutex_ ACQUIRED_AFTER(space_mutex_)
      ACQUIRED_BEFORE(kTelemetryRankBoundary) =
          Mutex{LockRank::kExecutorDone, "executor/done"};
  CondVar done_cv_;  ///< Signals completions.
  std::atomic<int> done_waiters_{0};

  // -- Stats --------------------------------------------------------
  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> submitted_baseline_{0};
  std::atomic<int64_t> queue_high_water_{0};
  /// Telemetry instruments; all null when ExecutorOptions::metrics is.
  telemetry::Counter* tasks_executed_metric_ = nullptr;
  telemetry::Counter* tasks_stolen_metric_ = nullptr;
  telemetry::Counter* tasks_local_metric_ = nullptr;
  telemetry::Gauge* queue_depth_metric_ = nullptr;
  telemetry::Histogram* task_latency_metric_ = nullptr;
  /// Execution counters are per worker and atomic so the hot path never
  /// takes a shared lock to account a finished task. ResetStats()
  /// snapshots baselines rather than zeroing, keeping reports coherent
  /// with tasks that finish mid-reset.
  struct alignas(64) WorkerCounters {
    std::atomic<int64_t> executed{0};
    std::atomic<int64_t> failed{0};
    std::atomic<int64_t> stolen{0};
    std::atomic<int64_t> local{0};
    std::atomic<int64_t> executed_baseline{0};
    std::atomic<int64_t> failed_baseline{0};
    std::atomic<int64_t> stolen_baseline{0};
    std::atomic<int64_t> local_baseline{0};
  };
  std::vector<std::unique_ptr<WorkerCounters>> counters_;
};

}  // namespace streambid::cluster

#endif  // STREAMBID_CLUSTER_TASK_EXECUTOR_H_
