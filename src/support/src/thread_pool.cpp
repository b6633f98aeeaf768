#include "synat/support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>

namespace synat {

/// One parallel_for call, shared by the caller and its helper tasks. A
/// helper that starts after every index was taken finds nothing to do, so
/// it never touches `body` once the call has returned.
struct ThreadPool::Loop {
  Loop(size_t n, const std::function<void(size_t)>& body) : n(n), body(body) {}

  void work() {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      std::exception_ptr e;
      try {
        body(i);
      } catch (...) {
        e = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu);
      if (e && i < first_error) {
        first_error = i;
        error = e;
      }
      if (++done == n) all_done.notify_all();
    }
  }

  /// Rethrows on the caller, which takes the exception out of the Loop: a
  /// helper that drops the last reference to the Loop later must not be
  /// the one that frees an exception the caller may still be reading.
  void wait() {
    std::exception_ptr e;
    {
      std::unique_lock<std::mutex> lock(mu);
      all_done.wait(lock, [this] { return done == n; });
      e = std::move(error);
    }
    if (e) std::rethrow_exception(e);
  }

  const size_t n;
  const std::function<void(size_t)>& body;
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::condition_variable all_done;
  size_t done = 0;  ///< indices finished; guarded by mu
  size_t first_error = SIZE_MAX;
  std::exception_ptr error;
};

ThreadPool::ThreadPool(unsigned threads) {
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool& ThreadPool::shared(unsigned workers) {
  // Leaked: the workers stay parked until the process exits, and no
  // destructor at exit joins them or frees what they wait on.
  if (workers == 0) {
    static ThreadPool* const inline_pool = new ThreadPool(0);
    return *inline_pool;
  }
  static std::mutex mu;
  static auto* const pools = new std::vector<ThreadPool*>();
  std::lock_guard<std::mutex> lock(mu);
  for (ThreadPool* p : *pools)
    if (p->num_threads() == workers) return *p;
  pools->push_back(new ThreadPool(workers));
  return *pools->back();
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(Task t) {
  if (workers_.empty()) {
    // Inline mode: depth-first execution on the caller's thread. FIFO order
    // is irrelevant for correctness (tasks are independent) and running
    // immediately avoids unbounded queue growth.
    t();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(t));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  if (workers_.empty()) return;
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::parallel_for(size_t n,
                              const std::function<void(size_t)>& body) {
  size_t helpers = 0;
  if (n > 1 && !workers_.empty()) {
    // Queued tasks will take waiting workers first; only the rest are idle.
    std::lock_guard<std::mutex> lock(mu_);
    const size_t idle =
        waiting_ > queue_.size() ? waiting_ - queue_.size() : 0;
    helpers = std::min(idle, n - 1);
  }
  if (helpers == 0) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  auto loop = std::make_shared<Loop>(n, body);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t h = 0; h < helpers; ++h)
      queue_.push_back([loop] { loop->work(); });
  }
  for (size_t h = 0; h < helpers; ++h) work_cv_.notify_one();
  loop->work();
  loop->wait();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    ++waiting_;
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    --waiting_;
    if (queue_.empty()) return;  // stop_ and drained
    Task t = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
    lock.unlock();
    t();
    lock.lock();
    --in_flight_;
    if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
  }
}

}  // namespace synat
