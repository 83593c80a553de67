// Minimal HTTP/1.1 message layer for `ethsm serve` (ROADMAP: "experiment
// results as a service"). Hand-rolled on purpose: the container bakes in no
// HTTP library, the daemon needs exactly request parsing + response
// serialization, and keeping the parser free of sockets makes it directly
// fuzzable (tests/serve/http_test.cpp feeds it arbitrary bytes in arbitrary
// chunkings and asserts it never crashes and always lands on complete or a
// 4xx/5xx error).
//
// Scope: request-line + headers + Content-Length bodies. Chunked request
// bodies are refused with 501 (no client of this service needs them);
// responses may use chunked transfer encoding for the progress stream, which
// the server emits directly. All limits are explicit: the server parses with
// the HttpLimits defaults, and tests pass smaller ones.

#ifndef ETHSM_SERVE_HTTP_H
#define ETHSM_SERVE_HTTP_H

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ethsm::serve {

/// Hard ceilings the parser enforces before trusting any length field; each
/// violation maps to the HTTP status named in the comment.
struct HttpLimits {
  std::size_t max_start_line = 8 * 1024;     ///< 414 URI / 400 method
  std::size_t max_header_bytes = 32 * 1024;  ///< 431 header block total
  std::size_t max_headers = 100;             ///< 431
  std::size_t max_body = 4 * 1024 * 1024;    ///< 413
};

/// One parsed request. Header names are lower-cased at parse time; query
/// parameters are percent-decoded and kept in order of appearance (later
/// duplicates of `set` are meaningful: they apply like repeated --set flags).
struct HttpRequest {
  std::string method;   ///< as sent (token chars only)
  std::string target;   ///< raw request target ("/v1/run?preset=fig8")
  std::string version;  ///< "HTTP/1.1" or "HTTP/1.0"
  std::string path;     ///< decoded path portion, always starts with '/'
  std::vector<std::pair<std::string, std::string>> headers;
  std::vector<std::pair<std::string, std::string>> query;
  std::string body;
  /// HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; the Connection
  /// header overrides either way.
  bool keep_alive = true;

  /// First header with this (lower-case) name; nullptr when absent.
  [[nodiscard]] const std::string* header(std::string_view name) const;
  /// First query parameter with this key; nullopt when absent.
  [[nodiscard]] std::optional<std::string> query_value(
      std::string_view key) const;
  /// Every query parameter with this key, in order.
  [[nodiscard]] std::vector<std::string> query_values(
      std::string_view key) const;
};

/// Incremental request parser. feed() bytes as they arrive; once complete()
/// the request() is valid. On failed(), error_status()/error() describe the
/// 4xx/5xx to answer with. Keep-alive connections call consume_request() to
/// drop the parsed bytes (pipelined bytes of the next request are preserved)
/// and start over.
class HttpRequestParser {
 public:
  explicit HttpRequestParser(HttpLimits limits = {});

  /// Appends bytes and advances the state machine as far as possible.
  void feed(std::string_view bytes);

  [[nodiscard]] bool complete() const noexcept {
    return phase_ == Phase::complete;
  }
  [[nodiscard]] bool failed() const noexcept { return phase_ == Phase::failed; }
  /// Valid only when complete().
  [[nodiscard]] const HttpRequest& request() const noexcept { return request_; }
  /// Valid only when failed().
  [[nodiscard]] int error_status() const noexcept { return error_status_; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// After a complete request was handled: drop its bytes, keep any pipelined
  /// remainder, and start parsing the next request from it.
  void consume_request();

 private:
  enum class Phase { start_line, headers, body, complete, failed };

  void fail(int status, std::string message);
  void advance();
  bool parse_start_line(std::string_view line);
  bool parse_header_line(std::string_view line);
  bool finish_headers();
  /// Next full line in buffer_ starting at cursor_ ('\n'-terminated, CRLF
  /// tolerated); nullopt when the buffer holds no full line yet.
  std::optional<std::string_view> next_line();

  HttpLimits limits_;
  Phase phase_ = Phase::start_line;
  std::string buffer_;
  std::size_t cursor_ = 0;        ///< parse position inside buffer_
  std::size_t header_bytes_ = 0;  ///< running header-block size
  std::size_t body_needed_ = 0;   ///< Content-Length once headers are done
  HttpRequest request_;
  int error_status_ = 0;
  std::string error_;
};

/// One response. `serialize` renders the status line, the standard headers
/// (Content-Type, Content-Length, Connection) plus `extra_headers`, then the
/// body. Responses carrying `close_connection` (or answering a request that
/// asked for close) advertise `Connection: close`.
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::vector<std::pair<std::string, std::string>> extra_headers;
  std::string body;
  bool close_connection = false;
};

[[nodiscard]] std::string_view status_reason(int status) noexcept;
[[nodiscard]] std::string serialize_response(const HttpResponse& response,
                                             bool keep_alive);

/// Uniform JSON error payload: {"error": "<message>"}.
[[nodiscard]] HttpResponse json_error(int status, std::string_view message);

/// Percent-decoding ('+' becomes a space only when `plus_is_space`); nullopt
/// on a malformed or NUL-producing escape.
[[nodiscard]] std::optional<std::string> percent_decode(std::string_view text,
                                                        bool plus_is_space);

}  // namespace ethsm::serve

#endif  // ETHSM_SERVE_HTTP_H
