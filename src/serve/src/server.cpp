#include "synat/serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "synat/obs/export.h"
#include "synat/obs/trace.h"
#include "synat/serve/rpc.h"

namespace synat::serve {

namespace {

// Self-pipe write end for the async-signal-safe SIGTERM/SIGINT handler.
// One daemon per process: serve() is the CLI's terminal call.
volatile sig_atomic_t g_wake_fd = -1;

void on_signal(int) {
  int fd = g_wake_fd;
  if (fd >= 0) {
    char b = 1;
    // The pipe is non-blocking; a full pipe means a wakeup is already
    // pending, which is all we need.
    [[maybe_unused]] ssize_t n = write(fd, &b, 1);
  }
}

bool send_all(int fd, const char* data, size_t len) {
  while (len > 0) {
    ssize_t n = send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // peer gone; the reply is undeliverable, not an error
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)), service_(opts_.service) {}

Server::~Server() {
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_rd_ >= 0) close(wake_rd_);
  if (wake_wr_ >= 0) close(wake_wr_);
}

void Server::request_stop() {
  int fd = wake_wr_;
  if (fd >= 0) {
    char b = 1;
    [[maybe_unused]] ssize_t n = write(fd, &b, 1);
  }
}

int Server::bind_listen(std::string* err) {
  if (opts_.listen.find('/') == std::string::npos) {
    *err = "listen address must be a unix socket path containing '/', got '" +
           opts_.listen + "'";
    return -1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts_.listen.size() >= sizeof(addr.sun_path)) {
    *err = "unix socket path too long: " + opts_.listen;
    return -1;
  }
  std::memcpy(addr.sun_path, opts_.listen.c_str(), opts_.listen.size() + 1);
  int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  // A stale socket file from a previous daemon would make bind fail;
  // replacing it is the conventional unix-daemon behavior.
  unlink(opts_.listen.c_str());
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      listen(fd, 64) < 0) {
    *err = "bind " + opts_.listen + ": " + std::strerror(errno);
    close(fd);
    return -1;
  }
  return fd;
}

void Server::reader_loop(std::shared_ptr<Conn> conn) {
  const size_t max_line = opts_.service.max_request_bytes + 4096;
  std::string buf;
  char chunk[64 * 1024];
  for (;;) {
    ssize_t n = recv(conn->fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed, or shutdown() during drain
    buf.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl; (nl = buf.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      std::string line = buf.substr(start, nl - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      service_.handle(std::move(line), [conn](std::string body) {
        body += '\n';
        std::lock_guard<std::mutex> lock(conn->write_mu);
        send_all(conn->fd, body.data(), body.size());
      });
    }
    buf.erase(0, start);
    if (buf.size() > max_line) {
      // A frame longer than any valid request: reject and drop the
      // connection rather than buffer unboundedly.
      std::string body =
          encode_error(nullptr, kErrInvalidRequest, "request line too long") +
          "\n";
      std::lock_guard<std::mutex> lock(conn->write_mu);
      send_all(conn->fd, body.data(), body.size());
      break;
    }
  }
  shutdown(conn->fd, SHUT_RDWR);
}

int Server::serve() {
  std::string err;
  listen_fd_ = bind_listen(&err);
  if (listen_fd_ < 0) {
    std::fprintf(stderr, "synat serve: %s\n", err.c_str());
    return 2;
  }

  int pipefd[2];
  if (pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) != 0) {
    std::fprintf(stderr, "synat serve: pipe: %s\n", std::strerror(errno));
    return 2;
  }
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];
  g_wake_fd = wake_wr_;
  service_.set_shutdown_hook([this] { request_stop(); });

  struct sigaction sa{}, old_term{}, old_int{};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGTERM, &sa, &old_term);
  sigaction(SIGINT, &sa, &old_int);

  if (!opts_.cache_file.empty()) service_.cache().load(opts_.cache_file);
  std::fprintf(stderr, "synat serve: listening on %s (%u jobs)\n",
               opts_.listen.c_str(), service_.jobs());

  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_rd_, POLLIN, 0}};
    if (poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // signal or shutdown RPC
    if ((fds[0].revents & POLLIN) == 0) continue;
    int cfd = accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (cfd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    auto conn = std::make_shared<Conn>();
    conn->fd = cfd;
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(conn);
    readers_.emplace_back([this, conn] { reader_loop(std::move(conn)); });
  }

  // Graceful drain. Order matters:
  //  1. stop accepting (close the listen socket, remove the socket file);
  //  2. wait for queued/in-flight analysis to finish — their replies are
  //     written by the pool workers, so clients see every response to a
  //     request that was admitted before the shutdown;
  //  3. only then unblock the connection readers and join them;
  //  4. persist the cache and trace.
  std::fprintf(stderr, "synat serve: draining\n");
  close(listen_fd_);
  listen_fd_ = -1;
  unlink(opts_.listen.c_str());
  service_.drain();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) shutdown(conn->fd, SHUT_RDWR);
  }
  for (std::thread& t : readers_) t.join();
  for (auto& conn : conns_) close(conn->fd);
  readers_.clear();
  conns_.clear();

  sigaction(SIGTERM, &old_term, nullptr);
  sigaction(SIGINT, &old_int, nullptr);
  g_wake_fd = -1;

  if (!opts_.cache_file.empty() &&
      !service_.cache().save(opts_.cache_file))
    std::fprintf(stderr, "synat serve: warning: could not save cache to %s\n",
                 opts_.cache_file.c_str());
  if (!opts_.trace_out.empty()) {
    std::vector<obs::SpanRecord> spans = obs::Tracer::instance().drain();
    std::string trace =
        obs::to_chrome_trace(spans, obs::Tracer::instance().lane_names(),
                             obs::Tracer::instance().count_dropped());
    std::string werr;
    if (!obs::write_file(opts_.trace_out, trace, &werr))
      std::fprintf(stderr, "synat serve: warning: %s\n", werr.c_str());
  }
  std::fprintf(stderr, "synat serve: stopped\n");
  return 0;
}

}  // namespace synat::serve
