// The `synat serve` method layer: decodes JSON-RPC requests, runs analysis
// methods on a thread pool against a shared hot result cache, and produces
// single-line response frames. Transport-agnostic — Server (server.h) feeds
// it lines from sockets, tests and the bench feed it lines directly.
//
// Methods:
//   analyze    {program, name?, provenance?, no_variants?, no_windows?,
//               no_conds?, counted?, max_paths?, max_variants?}
//              → {report, exit_code, cache_hits, procedures_reanalyzed}
//              `report` is the full schema-v5 batch JSON document,
//              byte-identical to `synat batch --format json` on the same
//              input and options (ServerDeterminism).
//   explain    analyze params + {proc?} → {explanation, exit_code}
//   status     {} → {version, schema_version, uptime_ms, cache_entries,
//                    options_fingerprint, in_flight, jobs, sandbox,
//                    latency_ns{count,p50,p95,p99}}
//   metrics    {} → {content_type, prometheus}  (Prometheus 0.0.4 text)
//   invalidate {} → {invalidated}               (drops the result cache)
//   shutdown   {} → {ok}; marks the service draining and fires the
//              shutdown hook so the owning server exits its accept loop.
//
// Concurrency/backpressure: analyze/explain are queued on the pool;
// at most `max_queue` may be queued or running — beyond that the request
// is refused immediately with kErrOverloaded (the 429 analogue), bounding
// both memory and latency under saturation. Cheap methods (status,
// metrics, invalidate, shutdown) are answered inline on the calling
// thread and never queue. After drain() begins, analysis methods are
// refused with kErrShuttingDown while in-flight work completes.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "synat/driver/cache.h"
#include "synat/obs/events.h"
#include "synat/serve/rpc.h"
#include "synat/support/thread_pool.h"

namespace synat::driver {
struct ProgramInput;  // driver.h; only named in a private declaration here
}

namespace synat::serve {

struct ServiceOptions {
  unsigned jobs = 0;            ///< pool workers; 0 = hardware concurrency
  size_t max_queue = 64;        ///< queued+running analysis request cap
  size_t max_request_bytes = 8u << 20;

  /// Sandboxed execution (--sandbox): each analyze/explain runs in a forked
  /// one-shot worker (driver/worker.h run_workers) under the per-request
  /// budgets below, so a crash/hang/OOM degrades that request — never the
  /// daemon. The worker inherits the hot cache via fork and ships back what
  /// it computed (CacheDelta), so sandboxing keeps the cache warm.
  bool sandbox = false;
  uint64_t sandbox_deadline_ms = 10'000;  ///< per-request deadline (0 = off)
  size_t sandbox_max_rss_mb = 0;          ///< per-worker RLIMIT_AS (0 = off)
  unsigned sandbox_retries = 1;           ///< re-forks after a worker death

  /// Wide-event sink (obs/events.h): one line per analyze/explain RPC,
  /// appended after the reply is produced. Not owned; may be null.
  obs::EventLog* events = nullptr;
};

class Service {
 public:
  /// Called with one complete response frame (no trailing newline).
  /// Notifications (requests without an id) produce no callback. May be
  /// invoked from a pool worker thread after handle() returned.
  using Reply = std::function<void(std::string)>;

  explicit Service(ServiceOptions opts);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Decodes and dispatches one request line. Thread-safe: transports may
  /// call this concurrently from many connection readers.
  void handle(std::string line, Reply reply);

  /// Stops accepting analysis work and blocks until in-flight requests
  /// (and their replies) finish. Idempotent.
  void drain();

  /// True once a shutdown request was received or drain() began.
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Invoked (once) when a shutdown RPC is accepted, from the handling
  /// thread; the owning transport should leave its accept loop and drain.
  void set_shutdown_hook(std::function<void()> hook);

  /// The shared result cache (snapshot load/save is the owner's business).
  driver::ResultCache& cache() { return cache_; }

  uint64_t uptime_ms() const;
  unsigned jobs() const { return jobs_; }
  size_t in_flight() const { return in_flight_.load(std::memory_order_relaxed); }

 private:
  // The analyze paths fill the request's wide event (`ev`, null for the
  // cheap methods); finish_obs() flushes it once the reply is handed to the
  // transport.
  std::string dispatch(const RpcRequest& req, uint32_t lane, obs::Event* ev);
  std::string do_analyze(const RpcRequest& req, bool explain, uint32_t lane,
                         obs::Event* ev);
  std::string do_analyze_sandboxed(const RpcRequest& req, bool explain,
                                   driver::ProgramInput input, bool provenance,
                                   const std::string& proc_filter,
                                   uint32_t lane, obs::Event* ev);
  /// Stamps the request's real-clock duration, records the latency
  /// percentile source, and appends the wide event (if a sink is
  /// configured).
  void finish_obs(obs::Event ev, uint64_t start_real_ns);
  std::string do_status(const RpcRequest& req);
  std::string do_metrics(const RpcRequest& req);
  std::string do_invalidate(const RpcRequest& req);
  std::string do_shutdown(const RpcRequest& req);

  ServiceOptions opts_;
  unsigned jobs_ = 1;
  driver::ResultCache cache_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<size_t> in_flight_{0};
  std::atomic<bool> draining_{false};
  std::atomic<uint64_t> next_request_{0};
  std::function<void()> shutdown_hook_;
  std::atomic<bool> hook_fired_{false};
  /// Set once a dropped event line has been reported.
  std::atomic<bool> events_warned_{false};
  uint64_t start_ns_ = 0;
};

}  // namespace synat::serve
