// Fixed-size worker pool with a FIFO work queue for the batch driver (one
// task per program) and the serve daemon (one task per request).
//
// Tasks may submit further tasks, so `wait_idle` waits until the queue is
// empty AND no worker is mid-task. Tasks must not throw; the driver wraps
// every task in its own try/catch and converts failures into reports.
// With `threads == 0` the pool is inline: submit() runs the task on the
// calling thread, which keeps `--jobs 1` free of scheduling noise and makes
// it the serial baseline for the speedup measurements.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace synat::driver {

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

  unsigned num_threads() const { return static_cast<unsigned>(workers_.size()); }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_cv_;   ///< signals workers: queue non-empty/stop
  std::condition_variable idle_cv_;   ///< signals wait_idle: all drained
  std::deque<Task> queue_;
  size_t in_flight_ = 0;  ///< tasks currently executing
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace synat::driver
