// The `synat serve` transport: a long-lived daemon accepting many
// concurrent clients over a unix-domain socket or TCP, speaking
// newline-delimited JSON-RPC 2.0 (rpc.h) and dispatching to a shared
// Service (service.h).
//
// Lifecycle: serve() binds, accepts, and blocks until a shutdown RPC or
// SIGTERM/SIGINT, then drains gracefully — stop accepting, let in-flight
// analysis requests finish and their replies flush, unblock connection
// readers, persist the result-cache snapshot and trace file. A second
// signal during the drain is not special: the drain is already as fast as
// the in-flight work allows.
//
// Concurrency: one reader thread per connection; request execution happens
// on the Service's pool, so a slow analysis never blocks other clients or
// other requests on the same connection. Replies are written under a
// per-connection mutex (they may complete out of order; JSON-RPC ids are
// the correlation mechanism).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "synat/serve/service.h"

namespace synat::serve {

struct ServerOptions {
  /// Listen address: a path (anything containing '/') binds a unix-domain
  /// socket (an existing socket file is replaced); otherwise "host:port"
  /// binds TCP ("127.0.0.1:9123"; empty host means loopback).
  std::string listen;
  ServiceOptions service;
  /// Result-cache snapshot: loaded before accepting (warm start), saved
  /// after the drain. Empty disables persistence.
  std::string cache_file;
  /// Crash-only recovery (--snapshot-interval-s): with a cache_file set,
  /// also snapshot the cache every this many seconds while serving, so a
  /// SIGKILL loses at most one interval of warm cache and the restarted
  /// daemon resumes warm. 0 keeps snapshot-on-drain only. Writes are
  /// atomic (tmp + rename, cache.h), so a kill mid-snapshot never
  /// corrupts the previous one.
  unsigned snapshot_interval_s = 0;
  /// Chrome trace-event JSON written after the drain (per-request lanes).
  /// Empty disables tracing.
  std::string trace_out;
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, accepts, and blocks until shutdown; returns the process exit
  /// code (0 clean shutdown, 2 bad listen address / bind failure).
  int serve();

  /// Thread-safe shutdown trigger (tests; the signal handler and the
  /// shutdown RPC use the same path). Idempotent.
  void request_stop();

  Service& service() { return service_; }

 private:
  struct Conn {
    int fd = -1;
    std::mutex write_mu;
  };

  int bind_listen(std::string* err);
  void reader_loop(std::shared_ptr<Conn> conn);

  ServerOptions opts_;
  Service service_;
  int listen_fd_ = -1;
  int wake_rd_ = -1, wake_wr_ = -1;  ///< self-pipe: signals + shutdown RPC
  bool unix_socket_ = false;

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Conn>> conns_;
  std::vector<std::thread> readers_;
};

}  // namespace synat::serve
