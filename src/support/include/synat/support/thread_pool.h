// Fixed-size worker pool with a FIFO work queue. The batch driver and the
// conflict universe of one program work in a process-lifetime pool,
// `shared(workers)`: created on first use, never joined, one per worker
// count, so a process that runs many batches spawns its workers once. The
// serve daemon keeps a pool of its own (one task per request).
//
// parallel_for is the batch's one schedule: the calling thread takes
// indices itself, beside one helper task per worker that is idle when the
// call starts. A batch runs its programs that way on `jobs - 1` workers
// plus its caller, and each program's universe build and classifications
// run their loops the same way on the workers its batch leaves free.
// Completion is tracked per call, so concurrent calls on one pool never
// wait for each other's indices, and a call from inside a task finishes
// even when no worker ever picks up its helpers. With no workers the loop
// runs inline, in order, which keeps `--jobs 1` free of scheduling noise
// and makes it the serial baseline for the speedup measurements.
//
// submit/wait_idle serve a pool's own task queue (serve's requests).
// Tasks may submit further tasks, so `wait_idle` waits until the queue is
// empty AND no worker is mid-task; it waits for the whole pool, so a
// shared pool never uses it. Tasks must not throw; their owners wrap every
// task in a try/catch and convert failures into reports. With
// `threads == 0`, submit() runs the task on the calling thread.
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

  /// The process's pool of `workers` workers, created on first use and
  /// never joined before exit; every caller asking for the same count
  /// gets the same pool. shared(0) is inline and takes no lock, so a
  /// forked child may use it while other threads of its parent held locks.
  static ThreadPool& shared(unsigned workers);

  /// Enqueues a task (or runs it immediately in inline mode). Safe to call
  /// from inside a running task.
  void submit(Task t);

  /// Blocks until every submitted task (including transitively submitted
  /// ones) has finished.
  void wait_idle();

  /// Runs body(0) .. body(n-1), each exactly once, and returns when all
  /// have finished. The calling thread takes indices alongside one helper
  /// task per idle worker; with no idle worker (or no workers at all) it
  /// runs them in order by itself. Safe to call from inside a task and
  /// from several threads at once. When a body throws, the exception of
  /// the lowest index that threw is rethrown after the other indices
  /// finish; run inline, the loop stops at it, as a serial loop would.
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
