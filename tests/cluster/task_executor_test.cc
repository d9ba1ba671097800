// Copyright 2026 The streambid Authors
// TaskExecutor contract tests: RunAll aligns results positionally for
// any result type, runs every task even when some fail (each failure
// stays in its own slot), hands each worker its own service, accounts
// every task to exactly one worker, and stays exact under concurrent
// callers sharing one pool.

#include "cluster/task_executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace streambid::cluster {
namespace {

ExecutorOptions Threads(int n) {
  ExecutorOptions options;
  options.num_threads = n;
  return options;
}

TEST(TaskExecutorTest, RunAllAlignsPositionally) {
  for (int threads : {1, 2, 8}) {
    TaskExecutor executor(Threads(threads));
    EXPECT_EQ(executor.num_threads(), threads);
    std::vector<TaskExecutor::Task<int>> tasks;
    for (int i = 0; i < 20; ++i) {
      tasks.push_back(
          [i](WorkerContext&) -> Result<int> { return i * i; });
    }
    const std::vector<Result<int>> results = executor.RunAll(tasks);
    ASSERT_EQ(results.size(), 20u) << threads << " threads";
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(results[static_cast<size_t>(i)].ok()) << i;
      EXPECT_EQ(*results[static_cast<size_t>(i)], i * i) << i;
    }
  }
}

TEST(TaskExecutorTest, RunAllRoundTripsTypedResults) {
  TaskExecutor executor(Threads(2));
  const std::vector<Result<std::string>> results =
      executor.RunAll<std::string>(
          {[](WorkerContext&) -> Result<std::string> {
             return std::string("fork");
           },
           [](WorkerContext&) -> Result<std::string> {
             return std::string("a string too long for the inline buffer");
           }});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(*results[0], "fork");
  EXPECT_EQ(*results[1], "a string too long for the inline buffer");
}

TEST(TaskExecutorTest, RunAllEmptyBatchIsEmpty) {
  TaskExecutor executor(Threads(2));
  EXPECT_TRUE(executor.RunAll<int>({}).empty());
  EXPECT_EQ(executor.StatsReport().executed, 0);
}

TEST(TaskExecutorTest, RunAllKeepsEveryResultAroundFailures) {
  TaskExecutor executor(Threads(4));
  std::atomic<int> executed{0};
  std::vector<TaskExecutor::Task<int>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([i, &executed](WorkerContext&) -> Result<int> {
      ++executed;
      if (i == 2) return Status::Internal("boom at 2");
      if (i == 5) return Status::OutOfRange("boom at 5");
      return i;
    });
  }
  const std::vector<Result<int>> results = executor.RunAll(tasks);
  // Failures do not cancel the batch: every task ran, and every other
  // slot still holds its value.
  EXPECT_EQ(executed.load(), 8);
  ASSERT_EQ(results.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    const Result<int>& result = results[static_cast<size_t>(i)];
    if (i == 2) {
      EXPECT_EQ(result.status().code(), StatusCode::kInternal);
      EXPECT_EQ(result.status().message(), "boom at 2");
    } else if (i == 5) {
      EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
      EXPECT_EQ(result.status().message(), "boom at 5");
    } else {
      ASSERT_TRUE(result.ok()) << i;
      EXPECT_EQ(*result, i);
    }
  }
  const TaskExecutorStats stats = executor.StatsReport();
  EXPECT_EQ(stats.executed, 8);
  EXPECT_EQ(stats.failed, 2);
}

TEST(TaskExecutorTest, WorkerContextExposesWorkerLocalService) {
  constexpr int kThreads = 3;
  TaskExecutor executor(Threads(kThreads));
  std::mutex mutex;
  std::map<int, std::set<const service::AdmissionService*>> seen;
  std::vector<TaskExecutor::Task<bool>> tasks(
      48, [&](WorkerContext& context) -> Result<bool> {
        std::lock_guard<std::mutex> lock(mutex);
        seen[context.worker_id].insert(context.service);
        return true;
      });
  for (int round = 0; round < 4; ++round) executor.RunAll(tasks);

  std::set<const service::AdmissionService*> distinct;
  for (const auto& [worker_id, handed_out] : seen) {
    ASSERT_GE(worker_id, 0);
    ASSERT_LT(worker_id, kThreads);
    // One worker, one service: the context never hands out another
    // worker's service...
    ASSERT_EQ(handed_out.size(), 1u) << worker_id;
    ASSERT_NE(*handed_out.begin(), nullptr);
    distinct.insert(*handed_out.begin());
  }
  // ...and no two workers share one.
  EXPECT_EQ(distinct.size(), seen.size());
}

TEST(TaskExecutorTest, StatsSumToTaskCount) {
  TaskExecutor executor(Threads(2));
  std::vector<TaskExecutor::Task<int>> tasks;
  for (int i = 0; i < 30; ++i) {
    tasks.push_back([i](WorkerContext&) -> Result<int> { return i; });
  }
  executor.RunAll(tasks);
  executor.RunAll(tasks);

  const TaskExecutorStats stats = executor.StatsReport();
  EXPECT_EQ(stats.executed, 60);
  EXPECT_EQ(stats.failed, 0);
  ASSERT_EQ(stats.tasks_per_worker.size(), 2u);
  // Every task is accounted to one of the two pool workers — work
  // cannot land anywhere else.
  EXPECT_EQ(std::accumulate(stats.tasks_per_worker.begin(),
                            stats.tasks_per_worker.end(), int64_t{0}),
            60);
}

TEST(TaskExecutorTest, ConcurrentRunAllCallers) {
  // Several callers share one pool's FIFO; every batch must still get
  // back exactly its own results, in its own order.
  constexpr int kCallers = 4;
  constexpr int kBatches = 500;
  constexpr int kBatchSize = 8;
  TaskExecutor executor(Threads(8));
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&executor, &mismatches, c] {
      std::vector<TaskExecutor::Task<int>> tasks;
      for (int i = 0; i < kBatchSize; ++i) {
        tasks.push_back([c, i](WorkerContext&) -> Result<int> {
          return c * 1000 + i;
        });
      }
      for (int b = 0; b < kBatches; ++b) {
        const std::vector<Result<int>> results = executor.RunAll(tasks);
        if (results.size() != static_cast<size_t>(kBatchSize)) {
          ++mismatches;
          continue;
        }
        for (int i = 0; i < kBatchSize; ++i) {
          const Result<int>& r = results[static_cast<size_t>(i)];
          if (!r.ok() || *r != c * 1000 + i) ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  constexpr int64_t kTotal = int64_t{kCallers} * kBatches * kBatchSize;
  const TaskExecutorStats stats = executor.StatsReport();
  EXPECT_EQ(stats.executed, kTotal);
  EXPECT_EQ(stats.failed, 0);
  ASSERT_EQ(stats.tasks_per_worker.size(), 8u);
  EXPECT_EQ(std::accumulate(stats.tasks_per_worker.begin(),
                            stats.tasks_per_worker.end(), int64_t{0}),
            kTotal);
}

}  // namespace
}  // namespace streambid::cluster
