// HttpServer socket tests: real TCP round trips against an ephemeral-port
// daemon -- request routing, keep-alive, malformed-input 4xx, the chunked
// progress stream, and clean shutdown. All suites are named Serve* so
// `ctest -L serve` selects them.

#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "api/presets.h"
#include "api/render.h"
#include "api/result.h"
#include "api/runner.h"
#include "api/spec.h"
#include "support/temp_dir.h"

namespace ethsm::serve {
namespace {

using testutil::temp_path;

/// Blocking client socket connected to 127.0.0.1:port; -1 on failure.
int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  return fd;
}

void send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
}

/// Reads one Content-Length-framed response off the socket.
std::string read_response(int fd) {
  std::string data;
  char buffer[4096];
  while (true) {
    const std::size_t header_end = data.find("\r\n\r\n");
    if (header_end != std::string::npos) {
      const std::size_t length_at = data.find("Content-Length: ");
      if (length_at == std::string::npos || length_at > header_end) break;
      const std::size_t body_bytes = static_cast<std::size_t>(
          std::strtoul(data.c_str() + length_at + 16, nullptr, 10));
      if (data.size() >= header_end + 4 + body_bytes) break;
    }
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) break;
    data.append(buffer, static_cast<std::size_t>(n));
  }
  return data;
}

/// Reads until the peer closes the connection.
std::string read_until_close(int fd) {
  std::string data;
  char buffer[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) break;
    data.append(buffer, static_cast<std::size_t>(n));
  }
  return data;
}

/// A live daemon on an ephemeral port, shut down on destruction.
class RunningServer {
 public:
  explicit RunningServer(ServiceConfig service_config,
                         ServerConfig server_config = {})
      : service_(std::move(service_config)),
        server_(service_, std::move(server_config)),
        thread_([this] { server_.serve(); }) {}

  ~RunningServer() {
    server_.request_stop();
    thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  [[nodiscard]] ExperimentService& service() { return service_; }
  [[nodiscard]] HttpServer& server() { return server_; }

 private:
  ExperimentService service_;
  HttpServer server_;
  std::thread thread_;
};

ServiceConfig service_config(const std::string& dir) {
  ServiceConfig config;
  config.checkpoint_dir = dir;
  return config;
}

TEST(ServeServer, RoundTripsStatusAndRun) {
  RunningServer daemon(service_config(temp_path("roundtrip")));
  const int fd = connect_to(daemon.port());
  ASSERT_GE(fd, 0);
  send_all(fd, "GET /v1/status HTTP/1.1\r\nConnection: close\r\n\r\n");
  const std::string status = read_until_close(fd);
  ::close(fd);
  EXPECT_NE(status.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(status.find("\"uptime_seconds\""), std::string::npos);

  // table1 computes instantly, so the socket round trip stays fast.
  const int run_fd = connect_to(daemon.port());
  ASSERT_GE(run_fd, 0);
  send_all(run_fd,
           "POST /v1/run?preset=table1 HTTP/1.1\r\n"
           "Connection: close\r\n\r\n");
  const std::string run = read_until_close(run_fd);
  ::close(run_fd);
  EXPECT_NE(run.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(run.find("\"kind\": \"reward_table\""), std::string::npos);
}

TEST(ServeServer, PostedMultiJobSpecMatchesTheCliBytes) {
  // A fig8-shaped spec: one Markov revenue job per alpha, which a connection
  // thread fans out on the global pool. Which thread solves which alpha must
  // not show in the payload.
  const std::string spec_text =
      "kind = revenue\n"
      "title = served sweep\n"
      "gamma = 0.5\n"
      "series.0.label = Ku\n"
      "series.0.rewards = flat:0.5\n";
  api::RunOptions options;
  options.checkpoint.directory = temp_path("multijob-cli");
  const std::string direct = api::render_json(api::provenance_normalized(
      api::run(api::parse_spec(spec_text), options)));

  RunningServer daemon(service_config(temp_path("multijob")));
  const int fd = connect_to(daemon.port());
  ASSERT_GE(fd, 0);
  send_all(fd, "POST /v1/run HTTP/1.1\r\nConnection: close\r\n"
               "Content-Length: " +
                   std::to_string(spec_text.size()) + "\r\n\r\n" +
                   spec_text);
  const std::string response = read_until_close(fd);
  ::close(fd);
  ASSERT_EQ(response.rfind("HTTP/1.1 200 OK", 0), 0u) << response;
  const std::size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  EXPECT_EQ(response.substr(body_at + 4), direct);
}

TEST(ServeServer, KeepAliveServesSequentialRequestsOnOneConnection) {
  RunningServer daemon(service_config(temp_path("keepalive")));
  const int fd = connect_to(daemon.port());
  ASSERT_GE(fd, 0);
  send_all(fd, "GET /v1/status HTTP/1.1\r\n\r\n");
  const std::string first = read_response(fd);
  EXPECT_NE(first.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(first.find("Connection: keep-alive"), std::string::npos);
  send_all(fd, "GET /v1/presets HTTP/1.1\r\n\r\n");
  const std::string second = read_response(fd);
  EXPECT_NE(second.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(second.find("\"presets\""), std::string::npos);
  ::close(fd);
}

TEST(ServeServer, MalformedRequestsGet4xxAndClose) {
  RunningServer daemon(service_config(temp_path("malformed")));
  for (const char* raw : {
           "NOT-HTTP\r\n\r\n",
           "GET /v1/status HTTP/9.9\r\n\r\n",
           "GET nopath HTTP/1.1\r\n\r\n",
           "POST /v1/run HTTP/1.1\r\nContent-Length: zap\r\n\r\n",
       }) {
    const int fd = connect_to(daemon.port());
    ASSERT_GE(fd, 0);
    send_all(fd, raw);
    const std::string response = read_until_close(fd);
    ::close(fd);
    // Parse errors answer with a client/protocol error status (the parser
    // contract is [400, 600): e.g. 400 for bad framing, 505 for HTTP/9.9).
    ASSERT_EQ(response.rfind("HTTP/1.1 ", 0), 0u) << "response: " << response;
    const int status = std::atoi(response.c_str() + 9);
    ASSERT_GE(status, 400) << "input: " << raw << "\nresponse: " << response;
    ASSERT_LT(status, 600) << "input: " << raw << "\nresponse: " << response;
    EXPECT_NE(response.find("Connection: close"), std::string::npos);
  }
}

TEST(ServeServer, UnknownEndpointIs404OverTheWire) {
  RunningServer daemon(service_config(temp_path("notfound")));
  const int fd = connect_to(daemon.port());
  ASSERT_GE(fd, 0);
  send_all(fd, "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n");
  const std::string response = read_until_close(fd);
  ::close(fd);
  EXPECT_NE(response.find("HTTP/1.1 404"), std::string::npos);
}

TEST(ServeServer, ProgressFollowStreamsChunksUntilDone) {
  const std::string dir = temp_path("follow");
  RunningServer daemon(service_config(dir));

  // Any preloaded preset fingerprint is followable; a quick table1 is
  // instant, so the stream terminates right away with a final snapshot.
  const api::ExperimentSpec spec = api::preset_spec("table1", true);
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(api::spec_fingerprint(spec)));

  const int fd = connect_to(daemon.port());
  ASSERT_GE(fd, 0);
  send_all(fd, "GET /v1/progress/" + std::string(hex) +
                   "?follow=1 HTTP/1.1\r\n\r\n");
  const std::string stream = read_until_close(fd);
  ::close(fd);
  EXPECT_NE(stream.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(stream.find("Transfer-Encoding: chunked"), std::string::npos);
  EXPECT_NE(stream.find("\"computing\": false"), std::string::npos);
  // Proper chunked termination.
  EXPECT_NE(stream.find("\r\n0\r\n\r\n"), std::string::npos);
}

TEST(ServeServer, StopUnblocksServeAndRefusesNewWork) {
  const std::string dir = temp_path("stop");
  auto* daemon = new RunningServer(service_config(dir));
  const std::uint16_t port = daemon->port();
  const auto started = std::chrono::steady_clock::now();
  delete daemon;  // request_stop + join: must return promptly
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            5);
  // The listener is gone: connections are refused (or reset immediately).
  const int fd = connect_to(port);
  if (fd >= 0) ::close(fd);
}

}  // namespace
}  // namespace ethsm::serve
