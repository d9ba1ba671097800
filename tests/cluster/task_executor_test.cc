// Copyright 2026 The streambid Authors
// TaskExecutor contract tests: typed tickets round-trip arbitrary
// closure results, RunAll aligns positionally and surfaces the
// lowest-index failure, the bounded queue backpressures TrySubmit,
// shutdown drains without hanging, and every failure mode (error
// Result, consumed ticket, double shutdown) returns a typed error.

#include "cluster/task_executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

namespace streambid::cluster {
namespace {

TEST(TaskExecutorTest, SubmitWaitRoundTripsTypedResults) {
  TaskExecutor executor(ExecutorOptions{2, 0});
  EXPECT_EQ(executor.num_threads(), 2);

  const auto int_ticket = executor.Submit<int>(
      [](WorkerContext&) -> Result<int> { return 41 + 1; });
  ASSERT_TRUE(int_ticket.ok());
  const auto string_ticket = executor.Submit<std::string>(
      [](WorkerContext&) -> Result<std::string> {
        return std::string("pipelined");
      });
  ASSERT_TRUE(string_ticket.ok());

  const Result<int> n = executor.Wait(*int_ticket);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 42);
  const Result<std::string> s = executor.Wait(*string_ticket);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, "pipelined");
  EXPECT_EQ(executor.pending_tasks(), 0);
}

TEST(TaskExecutorTest, WorkerContextExposesWorkerLocalService) {
  TaskExecutor executor(ExecutorOptions{3, 0});
  std::mutex mutex;
  std::vector<const service::AdmissionService*> seen;
  std::vector<int> ids;
  std::vector<Ticket<bool>> tickets;
  for (int i = 0; i < 12; ++i) {
    const auto ticket = executor.Submit<bool>(
        [&](WorkerContext& context) -> Result<bool> {
          std::lock_guard<std::mutex> lock(mutex);
          seen.push_back(context.service);
          ids.push_back(context.worker_id);
          return true;
        });
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*ticket);
  }
  for (const Ticket<bool> ticket : tickets) {
    ASSERT_TRUE(executor.Wait(ticket).ok());
  }
  for (size_t k = 0; k < seen.size(); ++k) {
    ASSERT_NE(seen[k], nullptr);
    ASSERT_GE(ids[k], 0);
    ASSERT_LT(ids[k], 3);
    // The context service is the worker's own, never another worker's.
    EXPECT_EQ(seen[k], &executor.worker_service(ids[k]));
  }
}

TEST(TaskExecutorTest, RunAllAlignsPositionally) {
  for (int threads : {1, 2, 8}) {
    TaskExecutor executor(ExecutorOptions{threads, 0});
    std::vector<TaskExecutor::Task<int>> tasks;
    for (int i = 0; i < 20; ++i) {
      tasks.push_back(
          [i](WorkerContext&) -> Result<int> { return i * i; });
    }
    const Result<std::vector<int>> results =
        executor.RunAll(std::move(tasks));
    ASSERT_TRUE(results.ok()) << threads << " threads";
    ASSERT_EQ(results->size(), 20u);
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ((*results)[static_cast<size_t>(i)], i * i) << i;
    }
  }
}

TEST(TaskExecutorTest, RunAllEmptyBatchIsEmpty) {
  TaskExecutor executor(ExecutorOptions{2, 0});
  const Result<std::vector<int>> results = executor.RunAll<int>({});
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

TEST(TaskExecutorTest, RunAllReportsLowestIndexFailure) {
  TaskExecutor executor(ExecutorOptions{4, 0});
  std::atomic<int> executed{0};
  std::vector<TaskExecutor::Task<int>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([i, &executed](WorkerContext&) -> Result<int> {
      ++executed;
      if (i == 2) return Status::Internal("boom at 2");
      if (i == 5) return Status::InvalidArgument("boom at 5");
      return i;
    });
  }
  const Result<std::vector<int>> results =
      executor.RunAll(std::move(tasks));
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kInternal);
  EXPECT_EQ(results.status().message(), "boom at 2");
  // All tasks still ran; failure reporting does not cancel the batch.
  EXPECT_EQ(executed.load(), 8);
}

TEST(TaskExecutorTest, ClosureErrorPropagatesThroughTicket) {
  TaskExecutor executor(ExecutorOptions{1, 0});
  const auto ticket = executor.Submit<int>(
      [](WorkerContext&) -> Result<int> {
        return Status::OutOfRange("task failed");
      });
  ASSERT_TRUE(ticket.ok());
  const Result<int> result = executor.Wait(*ticket);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(result.status().message(), "task failed");
  // The error consumed the ticket like any other result.
  EXPECT_EQ(executor.Wait(*ticket).status().code(), StatusCode::kNotFound);
  const TaskExecutorStats stats = executor.StatsReport();
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.executed, 1);
}

TEST(TaskExecutorTest, WaitOnConsumedOrUnknownTicketIsNotFound) {
  TaskExecutor executor(ExecutorOptions{1, 0});
  const auto ticket = executor.Submit<int>(
      [](WorkerContext&) -> Result<int> { return 7; });
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(executor.Wait(*ticket).ok());
  EXPECT_EQ(executor.Wait(*ticket).status().code(), StatusCode::kNotFound);
  const auto polled = executor.Poll(*ticket);
  ASSERT_TRUE(polled.has_value());
  EXPECT_EQ(polled->status().code(), StatusCode::kNotFound);
  EXPECT_EQ(executor.Wait(Ticket<int>{999}).status().code(),
            StatusCode::kNotFound);
}

/// Parks the single worker on a latch so the queue state is fully
/// deterministic: one running task, then exactly max_queue_depth queued.
struct Latch {
  std::mutex mutex;
  std::condition_variable cv;
  bool started = false;
  bool release = false;

  void WaitStarted() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return started; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      release = true;
    }
    cv.notify_all();
  }
};

TEST(TaskExecutorTest, TrySubmitBackpressuresOnFullQueue) {
  TaskExecutor executor(ExecutorOptions{1, 1});
  Latch latch;
  const auto blocker = executor.Submit<int>(
      [&latch](WorkerContext&) -> Result<int> {
        {
          std::unique_lock<std::mutex> lock(latch.mutex);
          latch.started = true;
          latch.cv.notify_all();
          latch.cv.wait(lock, [&latch] { return latch.release; });
        }
        return 1;
      });
  ASSERT_TRUE(blocker.ok());
  latch.WaitStarted();  // Worker busy; the queue itself is empty.

  const auto queued = executor.TrySubmit<int>(
      [](WorkerContext&) -> Result<int> { return 2; });
  ASSERT_TRUE(queued.ok());  // Fills the depth-1 queue.

  const auto rejected = executor.TrySubmit<int>(
      [](WorkerContext&) -> Result<int> { return 3; });
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  // A blocking Submit parks until the worker frees queue space.
  std::thread submitter([&executor] {
    const auto late = executor.Submit<int>(
        [](WorkerContext&) -> Result<int> { return 4; });
    ASSERT_TRUE(late.ok());
    const Result<int> result = executor.Wait(*late);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, 4);
  });

  latch.Release();
  submitter.join();
  EXPECT_EQ(*executor.Wait(*blocker), 1);
  EXPECT_EQ(*executor.Wait(*queued), 2);
  EXPECT_EQ(executor.pending_tasks(), 0);
}

TEST(TaskExecutorTest, ShutdownDrainsPendingTasksThenRejectsWork) {
  TaskExecutor executor(ExecutorOptions{2, 0});
  std::atomic<int> ran{0};
  std::vector<Ticket<int>> tickets;
  for (int i = 0; i < 16; ++i) {
    const auto ticket = executor.Submit<int>(
        [i, &ran](WorkerContext&) -> Result<int> {
          ++ran;
          return i;
        });
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*ticket);
  }
  ASSERT_TRUE(executor.Shutdown().ok());
  // Drained: every queued task ran, and its result is still claimable.
  EXPECT_EQ(ran.load(), 16);
  for (int i = 0; i < 16; ++i) {
    const Result<int> result =
        executor.Wait(tickets[static_cast<size_t>(i)]);
    ASSERT_TRUE(result.ok()) << i;
    EXPECT_EQ(*result, i);
  }

  // Post-shutdown submissions are typed errors, not hangs.
  const auto after = executor.Submit<int>(
      [](WorkerContext&) -> Result<int> { return 0; });
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kFailedPrecondition);
  const auto try_after = executor.TrySubmit<int>(
      [](WorkerContext&) -> Result<int> { return 0; });
  ASSERT_FALSE(try_after.ok());
  EXPECT_EQ(try_after.status().code(), StatusCode::kFailedPrecondition);
  const auto batch_after = executor.RunAll<int>(
      {[](WorkerContext&) -> Result<int> { return 0; }});
  ASSERT_FALSE(batch_after.ok());
  EXPECT_EQ(batch_after.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TaskExecutorTest, DoubleShutdownIsFailedPrecondition) {
  TaskExecutor executor(ExecutorOptions{1, 0});
  ASSERT_TRUE(executor.Shutdown().ok());
  const Status second = executor.Shutdown();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.code(), StatusCode::kFailedPrecondition);
}

TEST(TaskExecutorTest, DestructionWithoutShutdownNeverHangsWaiters) {
  // Queue deep work behind a parked worker, then destroy: queued tasks
  // are dropped and a concurrent-free Wait before destruction still
  // sees a typed error, not a hang (contract: the destructor completes
  // unconsumed tickets with kFailedPrecondition).
  std::optional<TaskExecutor> executor;
  executor.emplace(ExecutorOptions{1, 0});
  Latch latch;
  const auto blocker = executor->Submit<int>(
      [&latch](WorkerContext&) -> Result<int> {
        {
          std::unique_lock<std::mutex> lock(latch.mutex);
          latch.started = true;
          latch.cv.notify_all();
          latch.cv.wait(lock, [&latch] { return latch.release; });
        }
        return 1;
      });
  ASSERT_TRUE(blocker.ok());
  latch.WaitStarted();
  const auto queued = executor->Submit<int>(
      [](WorkerContext&) -> Result<int> { return 2; });
  ASSERT_TRUE(queued.ok());
  latch.Release();
  executor.reset();  // Joins the worker; drops whatever was still queued.
  SUCCEED();
}

TEST(TaskExecutorTest, StatsTrackWorkersAndQueueHighWater) {
  TaskExecutor executor(ExecutorOptions{2, 0});
  std::vector<TaskExecutor::Task<int>> tasks;
  for (int i = 0; i < 30; ++i) {
    tasks.push_back([i](WorkerContext&) -> Result<int> { return i; });
  }
  ASSERT_TRUE(executor.RunAll(std::move(tasks)).ok());

  const TaskExecutorStats stats = executor.StatsReport();
  EXPECT_EQ(stats.submitted, 30);
  EXPECT_EQ(stats.executed, 30);
  EXPECT_EQ(stats.failed, 0);
  ASSERT_EQ(stats.tasks_per_worker.size(), 2u);
  // Every task is accounted to one of the two pool workers — work
  // cannot land anywhere else.
  EXPECT_EQ(std::accumulate(stats.tasks_per_worker.begin(),
                            stats.tasks_per_worker.end(), int64_t{0}),
            30);
  EXPECT_GE(stats.queue_high_water, 1);
  EXPECT_LE(stats.queue_high_water, 30);

  executor.ResetStats();
  const TaskExecutorStats reset = executor.StatsReport();
  EXPECT_EQ(reset.submitted, 0);
  EXPECT_EQ(reset.executed, 0);
  EXPECT_EQ(reset.queue_high_water, 0);
  ASSERT_EQ(reset.tasks_per_worker.size(), 2u);
  EXPECT_EQ(reset.tasks_per_worker[0], 0);
}

TEST(TaskExecutorTest, SetMaxQueueDepthRejectsNegativeAndReads) {
  TaskExecutor executor(ExecutorOptions{1, 3});
  EXPECT_EQ(executor.max_queue_depth(), 3);
  const Status bad = executor.SetMaxQueueDepth(-1);
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(executor.max_queue_depth(), 3);
  ASSERT_TRUE(executor.SetMaxQueueDepth(5).ok());
  EXPECT_EQ(executor.max_queue_depth(), 5);
}

TEST(TaskExecutorTest, GrowingQueueDepthUnblocksParkedSubmit) {
  TaskExecutor executor(ExecutorOptions{1, 1});
  Latch latch;
  const auto blocker = executor.Submit<int>(
      [&latch](WorkerContext&) -> Result<int> {
        {
          std::unique_lock<std::mutex> lock(latch.mutex);
          latch.started = true;
          latch.cv.notify_all();
          latch.cv.wait(lock, [&latch] { return latch.release; });
        }
        return 1;
      });
  ASSERT_TRUE(blocker.ok());
  latch.WaitStarted();
  const auto queued = executor.TrySubmit<int>(
      [](WorkerContext&) -> Result<int> { return 2; });
  ASSERT_TRUE(queued.ok());  // Depth-1 queue now full.

  // This Submit parks on the full queue; the resize — not a worker
  // drain — is what must free it (the worker stays latched throughout).
  Result<Ticket<int>> late(Status::Internal("not submitted"));
  std::thread submitter([&executor, &late] {
    late = executor.Submit<int>(
        [](WorkerContext&) -> Result<int> { return 3; });
  });
  ASSERT_TRUE(executor.SetMaxQueueDepth(2).ok());
  submitter.join();  // Worker still parked: only the resize unblocked it.
  ASSERT_TRUE(late.ok());

  latch.Release();
  EXPECT_EQ(*executor.Wait(*blocker), 1);
  EXPECT_EQ(*executor.Wait(*queued), 2);
  EXPECT_EQ(*executor.Wait(*late), 3);
}

TEST(TaskExecutorTest, ResizeToUnboundedUnblocksParkedSubmit) {
  // Regression: the space wait must re-check for depth 0 (unbounded) —
  // "queue_.size() < 0" would otherwise park the producer forever.
  TaskExecutor executor(ExecutorOptions{1, 1});
  Latch latch;
  const auto blocker = executor.Submit<int>(
      [&latch](WorkerContext&) -> Result<int> {
        {
          std::unique_lock<std::mutex> lock(latch.mutex);
          latch.started = true;
          latch.cv.notify_all();
          latch.cv.wait(lock, [&latch] { return latch.release; });
        }
        return 1;
      });
  ASSERT_TRUE(blocker.ok());
  latch.WaitStarted();
  const auto queued = executor.TrySubmit<int>(
      [](WorkerContext&) -> Result<int> { return 2; });
  ASSERT_TRUE(queued.ok());

  Result<Ticket<int>> late(Status::Internal("not submitted"));
  std::thread submitter([&executor, &late] {
    late = executor.Submit<int>(
        [](WorkerContext&) -> Result<int> { return 3; });
  });
  ASSERT_TRUE(executor.SetMaxQueueDepth(0).ok());
  submitter.join();
  ASSERT_TRUE(late.ok());

  latch.Release();
  EXPECT_EQ(*executor.Wait(*blocker), 1);
  EXPECT_EQ(*executor.Wait(*queued), 2);
  EXPECT_EQ(*executor.Wait(*late), 3);
}

TEST(TaskExecutorTest, ShrinkingQueueDepthRejectsNewTrySubmits) {
  TaskExecutor executor(ExecutorOptions{1, 4});
  Latch latch;
  const auto blocker = executor.Submit<int>(
      [&latch](WorkerContext&) -> Result<int> {
        {
          std::unique_lock<std::mutex> lock(latch.mutex);
          latch.started = true;
          latch.cv.notify_all();
          latch.cv.wait(lock, [&latch] { return latch.release; });
        }
        return 1;
      });
  ASSERT_TRUE(blocker.ok());
  latch.WaitStarted();
  std::vector<Ticket<int>> queued;
  for (int i = 0; i < 2; ++i) {
    const auto ticket = executor.TrySubmit<int>(
        [i](WorkerContext&) -> Result<int> { return i; });
    ASSERT_TRUE(ticket.ok());
    queued.push_back(*ticket);
  }
  // Two queued; shrinking under the backlog drops nothing but refuses
  // new pushes until the workers drain below the new bound.
  ASSERT_TRUE(executor.SetMaxQueueDepth(1).ok());
  const auto refused = executor.TrySubmit<int>(
      [](WorkerContext&) -> Result<int> { return 9; });
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);

  latch.Release();
  EXPECT_EQ(*executor.Wait(*blocker), 1);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(*executor.Wait(queued[static_cast<size_t>(i)]), i);
  }
  EXPECT_EQ(executor.pending_tasks(), 0);
}

// ---------------------------------------------------------------------------
// Work-stealing and stats-coherence regressions.

TEST(TaskExecutorTest, StealingStressEightWorkersRacingSubmitters) {
  ExecutorOptions options;
  options.num_threads = 8;
  TaskExecutor executor(options);
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 200;
  std::atomic<int64_t> sum{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&executor, &sum, s] {
      std::vector<Ticket<int>> tickets;
      tickets.reserve(kPerSubmitter);
      for (int i = 0; i < kPerSubmitter; ++i) {
        const int value = s * kPerSubmitter + i;
        const auto ticket = executor.Submit<int>(
            [value](WorkerContext&) -> Result<int> { return value; });
        ASSERT_TRUE(ticket.ok());
        tickets.push_back(*ticket);
      }
      for (const Ticket<int>& ticket : tickets) {
        const Result<int> r = executor.Wait(ticket);
        ASSERT_TRUE(r.ok());
        sum.fetch_add(*r);
      }
    });
  }
  for (std::thread& t : submitters) t.join();

  constexpr int64_t kTotal = kSubmitters * kPerSubmitter;
  EXPECT_EQ(sum.load(), kTotal * (kTotal - 1) / 2);
  const TaskExecutorStats stats = executor.StatsReport();
  EXPECT_EQ(stats.submitted, kTotal);
  EXPECT_EQ(stats.executed, kTotal);
  EXPECT_EQ(stats.local_hits + stats.stolen, stats.executed);
  ASSERT_EQ(stats.tasks_per_worker.size(), 8u);
  ASSERT_EQ(stats.steals_per_worker.size(), 8u);
  EXPECT_EQ(std::accumulate(stats.tasks_per_worker.begin(),
                            stats.tasks_per_worker.end(), int64_t{0}),
            stats.executed);
  EXPECT_EQ(std::accumulate(stats.steals_per_worker.begin(),
                            stats.steals_per_worker.end(), int64_t{0}),
            stats.stolen);
  EXPECT_EQ(executor.pending_tasks(), 0);
}

TEST(TaskExecutorTest, IdleWorkersStealHotOwnersBacklog) {
  ExecutorOptions options;
  options.num_threads = 4;
  TaskExecutor executor(options);
  Latch latch;
  constexpr int kChildren = 16;
  std::atomic<int> done{0};
  std::vector<Ticket<int>> children;
  // The producer submits its children from inside a task, so they land
  // on its own worker's deque, then parks that worker on the latch.
  // Until it releases, only stealing can run the children.
  const auto producer = executor.Submit<int>(
      [&executor, &latch, &done, &children](WorkerContext&) -> Result<int> {
        for (int i = 0; i < kChildren; ++i) {
          const auto child = executor.TrySubmit<int>(
              [&done, i](WorkerContext&) -> Result<int> {
                done.fetch_add(1);
                return i;
              });
          if (!child.ok()) return child.status();
          children.push_back(*child);
        }
        std::unique_lock<std::mutex> lock(latch.mutex);
        latch.started = true;
        latch.cv.notify_all();
        latch.cv.wait(lock, [&latch] { return latch.release; });
        return -1;
      });
  ASSERT_TRUE(producer.ok());
  latch.WaitStarted();
  // Starvation regression: the hot owner never yields, yet the backlog
  // drains. If stealing broke, this loop would hang the test.
  while (done.load() < kChildren) std::this_thread::yield();
  const TaskExecutorStats mid = executor.StatsReport();
  EXPECT_GE(mid.stolen, kChildren);

  latch.Release();
  EXPECT_EQ(*executor.Wait(*producer), -1);
  for (const Ticket<int>& child : children) {
    EXPECT_TRUE(executor.Wait(child).ok());
  }
  EXPECT_EQ(executor.pending_tasks(), 0);
}

TEST(TaskExecutorTest, ResetStatsOpensCoherentWindow) {
  TaskExecutor executor(ExecutorOptions{2, 0});
  for (int i = 0; i < 8; ++i) {
    const auto ticket = executor.Submit<int>(
        [](WorkerContext&) -> Result<int> { return 1; });
    ASSERT_TRUE(ticket.ok());
    ASSERT_TRUE(executor.Wait(*ticket).ok());
  }
  executor.ResetStats();
  const TaskExecutorStats zero = executor.StatsReport();
  EXPECT_EQ(zero.submitted, 0);
  EXPECT_EQ(zero.executed, 0);
  EXPECT_EQ(zero.stolen, 0);
  EXPECT_EQ(zero.local_hits, 0);
  EXPECT_EQ(std::accumulate(zero.tasks_per_worker.begin(),
                            zero.tasks_per_worker.end(), int64_t{0}),
            0);

  for (int i = 0; i < 5; ++i) {
    const auto ticket = executor.Submit<int>(
        [](WorkerContext&) -> Result<int> { return 1; });
    ASSERT_TRUE(ticket.ok());
    ASSERT_TRUE(executor.Wait(*ticket).ok());
  }
  const TaskExecutorStats window = executor.StatsReport();
  EXPECT_EQ(window.submitted, 5);
  EXPECT_EQ(window.executed, 5);
  EXPECT_EQ(window.local_hits + window.stolen, window.executed);
}

TEST(TaskExecutorTest, ResetStatsRacingCompletionsStaysCoherent) {
  TaskExecutor executor(ExecutorOptions{2, 0});
  std::atomic<bool> stop{false};
  std::thread pump([&executor, &stop] {
    while (!stop.load()) {
      const auto ticket = executor.Submit<int>(
          [](WorkerContext&) -> Result<int> { return 1; });
      ASSERT_TRUE(ticket.ok());
      ASSERT_TRUE(executor.Wait(*ticket).ok());
    }
  });
  // The old executor zeroed counters non-atomically against racing
  // workers; the baseline scheme must never report torn or negative
  // windows, no matter when the reset lands.
  for (int i = 0; i < 50; ++i) {
    executor.ResetStats();
    const TaskExecutorStats stats = executor.StatsReport();
    EXPECT_GE(stats.submitted, 0);
    EXPECT_GE(stats.executed, 0);
    EXPECT_GE(stats.stolen, 0);
    EXPECT_GE(stats.local_hits, 0);
    EXPECT_EQ(stats.local_hits + stats.stolen, stats.executed);
    EXPECT_EQ(std::accumulate(stats.tasks_per_worker.begin(),
                              stats.tasks_per_worker.end(), int64_t{0}),
              stats.executed);
  }
  stop.store(true);
  pump.join();
}

TEST(TaskExecutorTest, QueueHighWaterTracksSharedDepthCounter) {
  TaskExecutor executor(ExecutorOptions{1, 8});
  Latch latch;
  const auto blocker = executor.Submit<int>(
      [&latch](WorkerContext&) -> Result<int> {
        {
          std::unique_lock<std::mutex> lock(latch.mutex);
          latch.started = true;
          latch.cv.notify_all();
          latch.cv.wait(lock, [&latch] { return latch.release; });
        }
        return -1;
      });
  ASSERT_TRUE(blocker.ok());
  latch.WaitStarted();
  // Eight racing submitters against a depth-8 bound and a parked
  // worker: nothing drains, so the shared depth counter must peak at
  // exactly 8 — and the high-water mark is maintained by CAS-max on
  // that counter, so the race cannot record a stale lower value.
  std::vector<std::thread> submitters;
  std::mutex tickets_mutex;
  std::vector<Ticket<int>> tickets;
  for (int s = 0; s < 8; ++s) {
    submitters.emplace_back([&executor, &tickets_mutex, &tickets, s] {
      const auto ticket = executor.TrySubmit<int>(
          [s](WorkerContext&) -> Result<int> { return s; });
      ASSERT_TRUE(ticket.ok());
      std::lock_guard<std::mutex> lock(tickets_mutex);
      tickets.push_back(*ticket);
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(executor.StatsReport().queue_high_water, 8);

  latch.Release();
  EXPECT_EQ(*executor.Wait(*blocker), -1);
  for (const Ticket<int>& ticket : tickets) {
    EXPECT_TRUE(executor.Wait(ticket).ok());
  }
  EXPECT_EQ(executor.pending_tasks(), 0);
}

}  // namespace
}  // namespace streambid::cluster
