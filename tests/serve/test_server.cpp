// The serve transport over real unix-domain sockets: round trips,
// concurrent clients, oversized frames, graceful shutdown via RPC and via
// request_stop (the signal handler's path).
#include "synat/serve/server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "synat/serve/rpc.h"

namespace synat::serve {
namespace {

std::string test_socket_path(const char* tag) {
  return "/tmp/synat_serve_test_" + std::to_string(getpid()) + "_" + tag +
         ".sock";
}

/// Minimal blocking line client.
class LineClient {
 public:
  explicit LineClient(const std::string& path) {
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    // The server binds from another thread; retry briefly.
    for (int i = 0; i < 200; ++i) {
      if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
        return;
      usleep(10'000);
    }
    close(fd_);
    fd_ = -1;
  }
  ~LineClient() {
    if (fd_ >= 0) close(fd_);
  }

  bool ok() const { return fd_ >= 0; }

  bool send_raw(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      // MSG_NOSIGNAL: writing to a drained/closed server connection must
      // surface as an error return, not SIGPIPE.
      ssize_t n =
          send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  bool send_line(const std::string& line) { return send_raw(line + "\n"); }

  /// Reads one newline-terminated frame ("" on EOF).
  std::string read_line() {
    while (true) {
      size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      ssize_t n = recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return {};
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  std::string rpc(const std::string& line) {
    EXPECT_TRUE(send_line(line));
    return read_line();
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

struct RunningServer {
  explicit RunningServer(ServerOptions opts)
      : server(std::move(opts)),
        thread([this] { exit_code = server.serve(); }) {}
  ~RunningServer() {
    server.request_stop();
    thread.join();
  }

  Server server;
  int exit_code = -1;
  std::thread thread;
};

ServerOptions options_for(const std::string& path, unsigned jobs = 2) {
  ServerOptions opts;
  opts.listen = path;
  opts.service.jobs = jobs;
  return opts;
}

TEST(ServeServer, RoundTripOverUnixSocket) {
  std::string path = test_socket_path("rt");
  RunningServer rs(options_for(path));
  LineClient client(path);
  ASSERT_TRUE(client.ok());
  std::string body =
      client.rpc(R"({"jsonrpc":"2.0","id":1,"method":"status"})");
  EXPECT_NE(body.find("\"result\""), std::string::npos) << body;
  body = client.rpc(
      R"({"jsonrpc":"2.0","id":2,"method":"analyze",)"
      R"("params":{"program":"proc P() { skip; }","name":"sock"}})");
  EXPECT_NE(body.find("\"report\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"exit_code\":0"), std::string::npos) << body;
}

TEST(ServeServer, ManyConcurrentClients) {
  std::string path = test_socket_path("many");
  RunningServer rs(options_for(path, 4));
  constexpr int kClients = 6;
  constexpr int kRequests = 5;
  std::vector<std::thread> threads;
  std::atomic<int> bad{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&path, &bad] {
      LineClient client(path);
      if (!client.ok()) {
        ++bad;
        return;
      }
      for (int i = 0; i < kRequests; ++i) {
        std::string body = client.rpc(
            R"({"jsonrpc":"2.0","id":1,"method":"analyze",)"
            R"("params":{"program":"proc P() { skip; }","name":"many"}})");
        if (body.find("\"report\"") == std::string::npos) ++bad;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(ServeServer, ShutdownRpcStopsTheServer) {
  std::string path = test_socket_path("rpc_stop");
  ServerOptions opts = options_for(path);
  Server server(std::move(opts));
  int exit_code = -1;
  std::thread t([&] { exit_code = server.serve(); });
  {
    LineClient client(path);
    ASSERT_TRUE(client.ok());
    std::string body =
        client.rpc(R"({"jsonrpc":"2.0","id":1,"method":"shutdown"})");
    EXPECT_NE(body.find("\"ok\":true"), std::string::npos) << body;
  }
  t.join();
  EXPECT_EQ(exit_code, 0);
  // The socket file is removed on shutdown.
  EXPECT_NE(access(path.c_str(), F_OK), 0);
}

TEST(ServeServer, RequestStopDrainsCleanly) {
  // request_stop is the signal handler's code path (SIGTERM/SIGINT write
  // the same self-pipe byte).
  std::string path = test_socket_path("sig");
  ServerOptions opts = options_for(path);
  Server server(std::move(opts));
  int exit_code = -1;
  std::thread t([&] { exit_code = server.serve(); });
  LineClient client(path);
  ASSERT_TRUE(client.ok());
  std::string body =
      client.rpc(R"({"jsonrpc":"2.0","id":1,"method":"status"})");
  EXPECT_NE(body.find("\"result\""), std::string::npos);
  server.request_stop();
  t.join();
  EXPECT_EQ(exit_code, 0);
  // After the drain the client sees EOF, not a hang.
  client.send_line(R"({"jsonrpc":"2.0","id":2,"method":"status"})");
  EXPECT_EQ(client.read_line(), "");
}

TEST(ServeServer, OversizedFrameIsRejected) {
  std::string path = test_socket_path("big");
  ServerOptions opts = options_for(path);
  opts.service.max_request_bytes = 1024;
  RunningServer rs(opts);
  LineClient client(path);
  ASSERT_TRUE(client.ok());
  // A single frame far over the limit, never newline-terminated: the
  // server must answer with an error and drop the connection instead of
  // buffering without bound.
  std::string huge(16 * 1024, 'x');
  ASSERT_TRUE(client.send_raw(huge));
  std::string body = client.read_line();
  EXPECT_NE(body.find("-32600"), std::string::npos) << body;
  EXPECT_EQ(client.read_line(), "");  // connection closed
}

TEST(ServeServer, MalformedLinesDoNotKillTheConnection) {
  std::string path = test_socket_path("bad");
  RunningServer rs(options_for(path));
  LineClient client(path);
  ASSERT_TRUE(client.ok());
  EXPECT_NE(client.rpc("garbage").find("-32700"), std::string::npos);
  EXPECT_NE(client.rpc("[]").find("-32600"), std::string::npos);
  EXPECT_NE(client.rpc(R"({"jsonrpc":"2.0","id":1,"method":"nope"})")
                .find("-32601"),
            std::string::npos);
  // The connection is still serviceable.
  EXPECT_NE(client.rpc(R"({"jsonrpc":"2.0","id":2,"method":"status"})")
                .find("\"result\""),
            std::string::npos);
}

TEST(ServeServer, BadListenAddressFails) {
  // serve listens on unix sockets only: a TCP address is refused like any
  // other address without a '/'. Should serve() bind one anyway, the
  // helper stops it, so the test fails instead of hanging.
  for (const char* address : {"no-slash-no-port", "127.0.0.1:0"}) {
    ServerOptions opts;
    opts.listen = address;
    Server server(std::move(opts));
    std::atomic<bool> returned{false};
    std::thread stopper([&] {
      while (!returned.load()) {
        usleep(50'000);
        server.request_stop();
      }
    });
    EXPECT_EQ(server.serve(), 2) << address;
    returned = true;
    stopper.join();
  }
}

}  // namespace
}  // namespace synat::serve
