#include "synat/support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace synat {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, InlineModeRunsOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  std::thread::id runner;
  pool.submit([&runner] { runner = std::this_thread::get_id(); });
  pool.wait_idle();
  EXPECT_EQ(runner, std::this_thread::get_id());
}

TEST(ThreadPool, TasksCanSubmitTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([&pool, &count] {
      count.fetch_add(1);
      for (int j = 0; j < 5; ++j)
        pool.submit([&count] { count.fetch_add(1); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 10 + 10 * 5);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, ParallelForRunsEachIndexOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> runs(kN);
  pool.parallel_for(kN, [&runs](size_t i) { runs[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(runs[i].load(), 1) << i;
  // The same from inside a task, with the other workers idle.
  std::vector<std::atomic<int>> nested(kN);
  pool.submit([&pool, &nested] {
    pool.parallel_for(kN, [&nested](size_t i) { nested[i].fetch_add(1); });
  });
  pool.wait_idle();
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(nested[i].load(), 1) << i;
}

// Every worker is inside a task, and every task is inside a parallel_for
// whose bodies make further parallel_for calls: helpers queued by any of
// them may never find a free worker, so each caller must finish its own
// indices.
TEST(ThreadPool, ParallelForFinishesWhenEveryWorkerIsInside) {
  constexpr unsigned kWorkers = 3;
  ThreadPool pool(kWorkers);
  std::atomic<unsigned> entered{0};
  std::atomic<int> inner_runs{0};
  for (unsigned t = 0; t < kWorkers; ++t) {
    pool.submit([&] {
      entered.fetch_add(1);
      while (entered.load() < kWorkers) std::this_thread::yield();
      pool.parallel_for(16, [&](size_t) {
        pool.parallel_for(8, [&](size_t) { inner_runs.fetch_add(1); });
      });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(inner_runs.load(), static_cast<int>(kWorkers * 16 * 8));
}

TEST(ThreadPool, ParallelForWithoutWorkersRunsInOrderOnCaller) {
  ThreadPool pool(0);
  std::vector<size_t> order;
  std::vector<std::thread::id> runners;
  pool.parallel_for(5, [&](size_t i) {
    order.push_back(i);
    runners.push_back(std::this_thread::get_id());
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  for (const std::thread::id& id : runners)
    EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(ThreadPool, ParallelForRethrowsTheLowestFailingIndex) {
  for (unsigned threads : {0u, 4u}) {
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    try {
      pool.parallel_for(64, [&ran](size_t i) {
        ran.fetch_add(1);
        if (i == 7 || i == 40) throw std::runtime_error(std::to_string(i));
      });
      ADD_FAILURE() << "no exception, " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "7") << threads << " threads";
    }
    // Inline, the loop stops where a serial loop would; with helpers,
    // the indices they took still run.
    if (threads == 0) {
      EXPECT_EQ(ran.load(), 8);
    } else {
      EXPECT_GE(ran.load(), 8);
    }
  }
}

// One pool per worker count, shared by the whole process: two threads
// calling parallel_for on it at once each see every index of every call
// run exactly once, and nothing touches a call's body after it returns
// (each call's counters die with it).
TEST(ThreadPool, SharedPoolRunsConcurrentCallsEachIndexOnce) {
  ThreadPool& pool = ThreadPool::shared(3);
  EXPECT_EQ(&pool, &ThreadPool::shared(3));
  EXPECT_EQ(pool.num_threads(), 3u);
  EXPECT_EQ(ThreadPool::shared(0).num_threads(), 0u);
  constexpr size_t kN = 500;
  constexpr int kCalls = 20;
  std::atomic<int> wrong{0};
  auto caller = [&] {
    for (int c = 0; c < kCalls; ++c) {
      std::vector<std::atomic<int>> runs(kN);
      pool.parallel_for(kN, [&runs](size_t i) { runs[i].fetch_add(1); });
      for (size_t i = 0; i < kN; ++i)
        if (runs[i].load() != 1) wrong.fetch_add(1);
    }
  };
  std::thread other(caller);
  caller();
  other.join();
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace synat
