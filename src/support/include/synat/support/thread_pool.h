// Fixed-size worker pool with a FIFO work queue, shared by the batch driver
// (one task per program), the serve daemon (one task per request) and the
// conflict universe of one program.
//
// Tasks may submit further tasks, so `wait_idle` waits until the queue is
// empty AND no worker is mid-task. Tasks must not throw; the driver wraps
// every task in its own try/catch and converts failures into reports.
// With `threads == 0` the pool is inline: submit() runs the task on the
// calling thread, which keeps `--jobs 1` free of scheduling noise and makes
// it the serial baseline for the speedup measurements.
//
// parallel_for splits one task's loop across the workers that are idle
// when it starts, so a program's universe build and classifications use
// the workers its batch leaves free. The caller takes indices itself, so a
// call from inside a task finishes even when no worker ever picks up its
// helpers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace synat {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Spawns `threads` workers; 0 means inline execution (no workers).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task (or runs it immediately in inline mode). Safe to call
  /// from inside a running task.
  void submit(Task t);

  /// Blocks until every submitted task (including transitively submitted
  /// ones) has finished.
  void wait_idle();

  /// Runs body(0) .. body(n-1), each exactly once, and returns when all
  /// have finished. The calling thread takes indices alongside one helper
  /// task per idle worker; with no idle worker (or no workers at all) it
  /// runs them in order by itself. Safe to call from inside a task. When a
  /// body throws, the exception of the lowest index that threw is rethrown
  /// after the other indices finish; run inline, the loop stops at it, as
  /// a serial loop would.
  void parallel_for(size_t n, const std::function<void(size_t)>& body);

  unsigned num_threads() const { return static_cast<unsigned>(workers_.size()); }

 private:
  struct Loop;
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_cv_;   ///< signals workers: queue non-empty/stop
  std::condition_variable idle_cv_;   ///< signals wait_idle: all drained
  std::deque<Task> queue_;
  size_t in_flight_ = 0;  ///< tasks currently executing
  size_t waiting_ = 0;    ///< workers between tasks
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace synat
