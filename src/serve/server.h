// HttpServer: the POSIX-socket transport of `ethsm serve`. A single accept
// loop plus N worker threads, all scheduled on one support::ThreadPool
// region (job 0 accepts, jobs 1..N serve connections popped off a bounded
// BlockingQueue). Connections are keep-alive HTTP/1.1 with per-socket I/O
// timeouts; request parsing and routing live in serve/http.h and
// serve/service.h, which keeps this file to sockets only.
//
// Shutdown: request_stop() just sets an atomic flag (async-signal-safe, the
// CLI calls it from SIGINT/SIGTERM handlers). The accept loop polls the flag
// every 100 ms, closes the listener, closes the queue; workers drain and
// exit; serve() returns.

#ifndef ETHSM_SERVE_SERVER_H
#define ETHSM_SERVE_SERVER_H

#include <atomic>
#include <cstdint>
#include <string>

#include "serve/blocking_queue.h"
#include "serve/http.h"
#include "serve/service.h"

namespace ethsm::serve {

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; bind_and_listen reports it
  /// Worker threads serving connections (the accept loop is one more).
  std::size_t workers = 4;
};

class HttpServer {
 public:
  /// Binds + listens immediately; throws std::runtime_error with the OS
  /// reason on failure. The service's queue-depth hook is wired here.
  HttpServer(ExperimentService& service, ServerConfig config);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// The bound port (the OS choice when config.port was 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Runs the accept loop + workers; blocks until request_stop().
  void serve();

  /// Signal-safe stop request: sets a flag the accept loop polls.
  void request_stop() noexcept { stop_.store(true); }

 private:
  void accept_loop();
  void worker_loop();
  void serve_connection(int fd);
  /// Handles one request on the connection; false = close the connection.
  bool serve_one(int fd, HttpRequestParser& parser,
                 const std::string& peer);
  void stream_progress(int fd, const HttpRequest& request,
                       std::uint64_t fingerprint);
  [[nodiscard]] bool send_all(int fd, std::string_view bytes);

  ExperimentService& service_;
  ServerConfig config_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  BlockingQueue<int> connections_;
};

}  // namespace ethsm::serve

#endif  // ETHSM_SERVE_SERVER_H
