// serve/http contract tests: request parsing across chunkings, limit
// enforcement, query decoding, response serialization -- plus a seeded fuzz
// sweep asserting the parser never crashes and always lands in a defined
// state on arbitrary bytes. All suites here are named Serve* so
// `ctest -L serve` selects them.

#include "serve/http.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

namespace ethsm::serve {
namespace {

/// Feeds `bytes` in chunks of `chunk` bytes (0 = all at once).
HttpRequestParser parse(const std::string& bytes, std::size_t chunk = 0,
                        HttpLimits limits = {}) {
  HttpRequestParser parser(limits);
  if (chunk == 0) {
    parser.feed(bytes);
  } else {
    for (std::size_t i = 0; i < bytes.size(); i += chunk) {
      parser.feed(std::string_view(bytes).substr(i, chunk));
    }
  }
  return parser;
}

TEST(ServeHttpParser, ParsesSimpleGet) {
  const auto parser = parse("GET /v1/status HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_TRUE(parser.complete());
  const HttpRequest& request = parser.request();
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.path, "/v1/status");
  EXPECT_EQ(request.version, "HTTP/1.1");
  EXPECT_TRUE(request.keep_alive);
  ASSERT_NE(request.header("host"), nullptr);
  EXPECT_EQ(*request.header("host"), "x");
}

TEST(ServeHttpParser, EveryChunkingParsesIdentically) {
  const std::string raw =
      "POST /v1/run?preset=fig8&quick=1&set=gamma%3D0.25 HTTP/1.1\r\n"
      "Content-Length: 11\r\n"
      "X-Ethsm-Client: tester\r\n"
      "\r\n"
      "kind = stub";
  for (std::size_t chunk = 1; chunk <= raw.size(); ++chunk) {
    const auto parser = parse(raw, chunk);
    ASSERT_TRUE(parser.complete()) << "chunk size " << chunk;
    const HttpRequest& request = parser.request();
    EXPECT_EQ(request.method, "POST");
    EXPECT_EQ(request.path, "/v1/run");
    EXPECT_EQ(request.body, "kind = stub");
    EXPECT_EQ(request.query_value("preset"), "fig8");
    EXPECT_EQ(request.query_value("quick"), "1");
    ASSERT_EQ(request.query_values("set").size(), 1u);
    EXPECT_EQ(request.query_values("set")[0], "gamma=0.25");
    ASSERT_NE(request.header("x-ethsm-client"), nullptr);
    EXPECT_EQ(*request.header("x-ethsm-client"), "tester");
  }
}

TEST(ServeHttpParser, RepeatedQueryKeysKeepOrder) {
  const auto parser = parse(
      "GET /p?set=a%3D1&set=b%3D2&set=a%3D3 HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(parser.complete());
  const auto sets = parser.request().query_values("set");
  ASSERT_EQ(sets.size(), 3u);
  EXPECT_EQ(sets[0], "a=1");
  EXPECT_EQ(sets[1], "b=2");
  EXPECT_EQ(sets[2], "a=3");
}

TEST(ServeHttpParser, PlusDecodesToSpaceInQueryOnly) {
  const auto parser = parse("GET /a+b?q=x+y HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().path, "/a+b");
  EXPECT_EQ(parser.request().query_value("q"), "x y");
}

TEST(ServeHttpParser, BareLfLinesAreTolerated) {
  const auto parser = parse("GET / HTTP/1.1\nHost: x\n\n");
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().path, "/");
}

TEST(ServeHttpParser, Http10DefaultsToClose) {
  const auto parser = parse("GET / HTTP/1.0\r\n\r\n");
  ASSERT_TRUE(parser.complete());
  EXPECT_FALSE(parser.request().keep_alive);
}

TEST(ServeHttpParser, ConnectionHeaderOverridesDefault) {
  const auto closed = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  ASSERT_TRUE(closed.complete());
  EXPECT_FALSE(closed.request().keep_alive);
  const auto kept =
      parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
  ASSERT_TRUE(kept.complete());
  EXPECT_TRUE(kept.request().keep_alive);
}

TEST(ServeHttpParser, PipelinedRequestsConsumeCleanly) {
  HttpRequestParser parser;
  parser.feed("GET /one HTTP/1.1\r\n\r\nGET /two HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().path, "/one");
  parser.consume_request();
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.request().path, "/two");
}

TEST(ServeHttpParser, RejectsMalformedInputsWith4xx) {
  const std::vector<std::string> bad = {
      "FOO BAR\r\n\r\n",                                // no version
      "GET /\r\n\r\n",                                  // no version
      "GET / HTTP/2.0\r\n\r\n",                         // unsupported version
      "GET relative HTTP/1.1\r\n\r\n",                  // not absolute
      " GET / HTTP/1.1\r\n\r\n",                        // leading space
      "GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",          // malformed header
      "GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",   // negative length
      "GET / HTTP/1.1\r\nContent-Length: 1x\r\n\r\n",   // non-numeric
      "GET / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n",
      "GET /%zz HTTP/1.1\r\n\r\n",                      // bad escape
      "GET /%00 HTTP/1.1\r\n\r\n",                      // NUL escape
      "G\x01T / HTTP/1.1\r\n\r\n",                      // control in method
  };
  for (const std::string& raw : bad) {
    const auto parser = parse(raw);
    ASSERT_TRUE(parser.failed()) << "input: " << raw;
    EXPECT_GE(parser.error_status(), 400) << "input: " << raw;
    EXPECT_LT(parser.error_status(), 600) << "input: " << raw;
    EXPECT_FALSE(parser.error().empty());
  }
}

TEST(ServeHttpParser, ChunkedRequestBodiesGet501) {
  const auto parser = parse(
      "POST /v1/run HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 501);
}

TEST(ServeHttpParser, EnforcesStartLineLimit) {
  HttpLimits limits;
  limits.max_start_line = 64;
  const auto parser =
      parse("GET /" + std::string(200, 'a') + " HTTP/1.1\r\n\r\n", 0, limits);
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 414);
}

TEST(ServeHttpParser, EnforcesHeaderLimits) {
  HttpLimits limits;
  limits.max_headers = 3;
  std::string raw = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 5; ++i) {
    raw += 'H';
    raw += std::to_string(i);
    raw += ": v\r\n";
  }
  raw += "\r\n";
  const auto parser = parse(raw, 0, limits);
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(ServeHttpParser, EnforcesBodyLimit) {
  HttpLimits limits;
  limits.max_body = 8;
  const auto parser = parse(
      "POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n", 0, limits);
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(ServeHttpResponse, SerializesStatusHeadersAndBody) {
  HttpResponse response;
  response.status = 200;
  response.body = "{\"ok\": true}";
  response.extra_headers.emplace_back("X-Ethsm-Source", "cache");
  const std::string wire = serialize_response(response, true);
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Type: application/json\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 12\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_NE(wire.find("X-Ethsm-Source: cache\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 12), "{\"ok\": true}");
}

TEST(ServeHttpResponse, JsonErrorEscapesThePayload) {
  const HttpResponse response = json_error(400, "bad \"quote\"\nnewline");
  EXPECT_EQ(response.status, 400);
  EXPECT_EQ(response.body, "{\"error\": \"bad \\\"quote\\\"\\nnewline\"}\n");
}

TEST(ServeHttpPercentDecode, RoundTripsAndRejects) {
  EXPECT_EQ(percent_decode("a%20b", false), "a b");
  EXPECT_EQ(percent_decode("a+b", true), "a b");
  EXPECT_EQ(percent_decode("a+b", false), "a+b");
  EXPECT_EQ(percent_decode("%41%42", false), "AB");
  EXPECT_FALSE(percent_decode("%", false).has_value());
  EXPECT_FALSE(percent_decode("%4", false).has_value());
  EXPECT_FALSE(percent_decode("%gg", false).has_value());
  EXPECT_FALSE(percent_decode("%00", false).has_value());
}

// The central fuzz property: arbitrary bytes in arbitrary chunkings leave
// the parser in exactly one of {incomplete, complete, failed-with-4xx/5xx},
// and never crash it. Seeded, so failures reproduce.
TEST(ServeHttpFuzz, ArbitraryBytesNeverCrashTheParser) {
  std::mt19937_64 rng(0xe7500f00ULL);
  std::string alphabet = "GETPOST/v1run?&=%: \r\n\tabcxyz0123456789";
  // NUL/control/high bytes go in explicitly (a literal would truncate at \0).
  alphabet.push_back('\0');
  alphabet.push_back('\x01');
  alphabet.push_back('\x7f');
  alphabet.push_back(static_cast<char>(0xff));
  for (int round = 0; round < 3000; ++round) {
    std::uniform_int_distribution<std::size_t> length(0, 300);
    std::string bytes(length(rng), '\0');
    for (char& c : bytes) {
      c = alphabet[rng() % alphabet.size()];
    }
    HttpRequestParser parser;
    std::size_t offset = 0;
    while (offset < bytes.size()) {
      const std::size_t chunk =
          1 + static_cast<std::size_t>(rng() % 40);
      parser.feed(std::string_view(bytes).substr(offset, chunk));
      offset += chunk;
    }
    if (parser.failed()) {
      EXPECT_GE(parser.error_status(), 400);
      EXPECT_LT(parser.error_status(), 600);
    } else if (parser.complete()) {
      EXPECT_FALSE(parser.request().method.empty());
      EXPECT_EQ(parser.request().path.front(), '/');
    }
  }
}

// Mutations of a valid request: flip/insert/delete random bytes. Same
// property; this drives the parser through the near-valid space where header
// and length handling bugs live.
TEST(ServeHttpFuzz, MutatedValidRequestsNeverCrashTheParser) {
  const std::string valid =
      "POST /v1/run?preset=fig8&set=gamma%3D0.5 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Length: 5\r\n"
      "\r\n"
      "ab=cd";
  std::mt19937_64 rng(0x5e12e7ULL);
  for (int round = 0; round < 3000; ++round) {
    std::string bytes = valid;
    const int mutations = 1 + static_cast<int>(rng() % 4);
    for (int m = 0; m < mutations; ++m) {
      const std::size_t pos = rng() % bytes.size();
      switch (rng() % 3) {
        case 0:
          bytes[pos] = static_cast<char>(rng() % 256);
          break;
        case 1:
          bytes.insert(pos, 1, static_cast<char>(rng() % 256));
          break;
        default:
          bytes.erase(pos, 1);
          break;
      }
    }
    HttpRequestParser parser;
    parser.feed(bytes);
    if (parser.failed()) {
      EXPECT_GE(parser.error_status(), 400);
      EXPECT_LT(parser.error_status(), 600);
    }
  }
}

}  // namespace
}  // namespace ethsm::serve
