#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "support/json.h"
#include "support/thread_pool.h"

namespace ethsm::serve {

namespace {

/// Accepted-but-unserved connection backlog; when full, new connections are
/// answered 503 rather than queued unbounded.
constexpr std::size_t kQueueCapacity = 64;
/// Per-socket read/write timeout. Generous: a cold full-resolution run can
/// legitimately compute for minutes before the response starts.
constexpr unsigned kIoTimeoutSeconds = 600;

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Peer address as "a.b.c.d" (the default admission identity).
std::string peer_address(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return "unknown";
  }
  char text[INET_ADDRSTRLEN] = {};
  if (inet_ntop(AF_INET, &addr.sin_addr, text, sizeof text) == nullptr) {
    return "unknown";
  }
  return text;
}

/// One HTTP/1.1 chunk: hex length, CRLF, data, CRLF.
std::string chunk(std::string_view data) {
  char size[32];
  std::snprintf(size, sizeof size, "%zx\r\n",
                static_cast<std::size_t>(data.size()));
  std::string out(size);
  out.append(data);
  out.append("\r\n");
  return out;
}

}  // namespace

HttpServer::HttpServer(ExperimentService& service, ServerConfig config)
    : service_(service),
      config_(std::move(config)),
      connections_(kQueueCapacity) {
  if (config_.workers == 0) config_.workers = 1;
  service_.set_queue_depth_provider([this] { return connections_.depth(); });

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) fail_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  const std::string host =
      config_.host == "localhost" ? "127.0.0.1" : config_.host;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: malformed listen address '" +
                             config_.host + "' (want an IPv4 address)");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    fail_errno("bind " + host + ":" + std::to_string(config_.port));
  }
  if (::listen(listen_fd_, SOMAXCONN) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    fail_errno("listen");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    fail_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
}

HttpServer::~HttpServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void HttpServer::serve() {
  // Job 0 is the accept loop, jobs 1..workers serve connections: one pool
  // region whose jobs all run until shutdown, sized so every job gets its
  // own thread (the calling thread participates).
  support::ThreadPool pool(static_cast<unsigned>(config_.workers) + 1);
  pool.for_each_index(config_.workers + 1, [this](std::size_t job) {
    if (job == 0) {
      accept_loop();
    } else {
      worker_loop();
    }
  });
}

void HttpServer::accept_loop() {
  while (!stop_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);  // 100 ms stop-flag granularity
    if (ready <= 0) continue;  // timeout or EINTR: re-check the stop flag
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (!connections_.push_wait(fd, std::chrono::milliseconds(200))) {
      // Every worker busy and the backlog full: shed load loudly instead of
      // queueing without bound.
      const std::string payload = serialize_response(
          json_error(503, "server saturated; retry shortly"), false);
      (void)send_all(fd, payload);
      ::close(fd);
    }
  }
  connections_.close();  // drains, then pops return nullopt and workers exit
}

void HttpServer::worker_loop() {
  while (std::optional<int> fd = connections_.pop()) {
    serve_connection(*fd);
  }
}

void HttpServer::serve_connection(int fd) {
  timeval timeout{};
  timeout.tv_sec = static_cast<time_t>(kIoTimeoutSeconds);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);

  const std::string peer = peer_address(fd);
  HttpRequestParser parser;
  while (serve_one(fd, parser, peer)) {
  }
  ::close(fd);
}

bool HttpServer::serve_one(int fd, HttpRequestParser& parser,
                           const std::string& peer) {
  char buffer[16 * 1024];
  while (!parser.complete() && !parser.failed()) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) return false;  // peer closed, timed out, or errored
    parser.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
  }
  if (parser.failed()) {
    // The connection state is unknowable after a malformed request: answer
    // and close.
    const std::string payload = serialize_response(
        json_error(parser.error_status(), parser.error()), false);
    (void)send_all(fd, payload);
    return false;
  }

  const HttpRequest& request = parser.request();
  const std::string* header_client = request.header("x-ethsm-client");
  const std::string client = header_client ? *header_client : peer;
  const bool keep_alive = request.keep_alive && !stop_.load();

  // ?follow=1 on the progress endpoint streams snapshots (chunked) until the
  // computation lands; everything else is a plain response.
  if (request.method == "GET" &&
      request.path.rfind("/v1/progress/", 0) == 0 &&
      request.query_value("follow").value_or("0") != "0") {
    const auto fingerprint = ExperimentService::parse_fingerprint(
        request.path.substr(std::strlen("/v1/progress/")));
    if (fingerprint) {
      stream_progress(fd, request, *fingerprint);
      return false;  // chunked stream ends the connection
    }
  }

  HttpResponse response = service_.handle(request, client);
  const bool keep =
      keep_alive && !response.close_connection && response.status < 500;
  if (!send_all(fd, serialize_response(response, keep))) return false;
  parser.consume_request();
  return keep;
}

void HttpServer::stream_progress(int fd, const HttpRequest& request,
                                 std::uint64_t fingerprint) {
  // Route the first snapshot through handle() so validation, 404s and the
  // /v1/status request counters behave exactly like the non-follow endpoint.
  HttpResponse first = service_.handle(request, "follow");
  if (first.status != 200) {
    (void)send_all(fd, serialize_response(first, false));
    return;
  }
  std::string head;
  head += "HTTP/1.1 200 OK\r\n";
  head += "Content-Type: application/json\r\n";
  head += "Transfer-Encoding: chunked\r\n";
  head += "Connection: close\r\n\r\n";
  if (!send_all(fd, head) || !send_all(fd, chunk(first.body))) return;

  // One snapshot every 200 ms while the computation runs, with a hard cap so
  // an abandoned stream cannot outlive its client forever.
  const int max_snapshots = 5 * 60 * 5;  // five minutes
  for (int i = 0; i < max_snapshots && !stop_.load(); ++i) {
    if (!service_.computing(fingerprint)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const std::optional<std::string> snapshot =
        service_.progress_snapshot(fingerprint);
    if (!snapshot || !send_all(fd, chunk(*snapshot))) return;
  }
  // Terminal snapshot (computing: false / cached: true) + last chunk.
  if (const auto last = service_.progress_snapshot(fingerprint)) {
    if (!send_all(fd, chunk(*last))) return;
  }
  (void)send_all(fd, "0\r\n\r\n");
}

bool HttpServer::send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace ethsm::serve
