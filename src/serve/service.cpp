#include "serve/service.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <vector>

#include "api/presets.h"
#include "api/render.h"
#include "api/result.h"
#include "api/runner.h"
#include "api/spec.h"
#include "support/check.h"
#include "support/checkpoint.h"
#include "support/json.h"
#include "support/trace.h"

namespace ethsm::serve {

using support::hex64;
using support::json_escape;

namespace {

/// Retry-After header value on 429 responses.
constexpr unsigned kRetryAfterSeconds = 2;

HttpResponse sourced(std::string body, const char* source) {
  HttpResponse response;
  response.body = std::move(body);
  response.extra_headers.emplace_back("X-Ethsm-Source", source);
  return response;
}

HttpResponse rejected_response() {
  HttpResponse response =
      json_error(429, "computation budget exhausted; retry after " +
                          std::to_string(kRetryAfterSeconds) + "s");
  response.extra_headers.emplace_back("Retry-After",
                                      std::to_string(kRetryAfterSeconds));
  return response;
}

}  // namespace

ExperimentService::ExperimentService(ServiceConfig config)
    : config_(std::move(config)),
      table_(config_.cache_entries, config_.admission),
      started_(std::chrono::steady_clock::now()),
      requests_total_(registry_.counter("ethsm_serve_requests_total",
                                        "HTTP requests handled")),
      requests_run_(registry_.counter("ethsm_serve_requests_run_total",
                                      "POST /v1/run requests")),
      requests_result_(registry_.counter("ethsm_serve_requests_result_total",
                                         "GET /v1/result requests")),
      requests_presets_(registry_.counter("ethsm_serve_requests_presets_total",
                                          "GET /v1/presets requests")),
      requests_status_(registry_.counter("ethsm_serve_requests_status_total",
                                         "GET /v1/status requests")),
      requests_progress_(registry_.counter(
          "ethsm_serve_requests_progress_total", "GET /v1/progress requests")),
      requests_metrics_(registry_.counter("ethsm_serve_requests_metrics_total",
                                          "GET /metrics requests")),
      computations_(registry_.counter("ethsm_serve_computations_total",
                                      "Computations run to completion")),
      failures_(registry_.counter("ethsm_serve_failures_total",
                                  "Requests failed with an internal error")),
      request_seconds_(registry_.histogram(
          "ethsm_serve_request_seconds",
          support::metrics::Histogram::latency_bounds_seconds(),
          "End-to-end request handling latency")) {
  ETHSM_EXPECTS(!config_.checkpoint_dir.empty(),
                "serve needs a checkpoint directory");
  // The table keeps its own accounting (tests drive it directly); the
  // registry samples it through callbacks at render time, so /v1/status and
  // /metrics read the same source. Every running computation holds one
  // admission slot, so the in-flight and acquired gauges read one count.
  registry_.register_gauge_fn(
      "ethsm_serve_cache_entries",
      [this] { return static_cast<std::int64_t>(table_.stats().entries); },
      "Rendered payloads resident in the LRU cache");
  registry_.register_counter_fn(
      "ethsm_serve_cache_hits_total", [this] { return table_.stats().hits; },
      "Result-cache hits");
  registry_.register_counter_fn(
      "ethsm_serve_cache_misses_total",
      [this] { return table_.stats().misses; }, "Result-cache misses");
  registry_.register_counter_fn(
      "ethsm_serve_cache_evictions_total",
      [this] { return table_.stats().evictions; },
      "Result-cache LRU evictions");
  registry_.register_gauge_fn(
      "ethsm_serve_inflight_jobs",
      [this] { return static_cast<std::int64_t>(table_.stats().jobs); },
      "Computations currently in flight");
  registry_.register_counter_fn(
      "ethsm_serve_dedupe_attached_total",
      [this] { return table_.stats().attached; },
      "Requests served by attaching to an in-flight computation");
  registry_.register_gauge_fn(
      "ethsm_serve_admission_acquired",
      [this] { return static_cast<std::int64_t>(table_.stats().jobs); },
      "Admission slots currently held");
  registry_.register_counter_fn(
      "ethsm_serve_admission_rejected_total",
      [this] { return table_.stats().rejected; },
      "Requests rejected by admission control (429s)");
  registry_.register_gauge_fn(
      "ethsm_serve_queue_depth",
      [this] {
        return static_cast<std::int64_t>(queue_depth_ ? queue_depth_() : 0);
      },
      "Accepted connections waiting for a worker");
  // Preload the registry: /v1/result and /v1/progress resolve every preset
  // fingerprint (full and quick) from the first request on, cold cache or
  // not.
  for (const api::Preset& preset : api::presets()) {
    for (const bool quick : {false, true}) {
      const api::ExperimentSpec spec = preset.spec(quick);
      table_.remember(api::spec_fingerprint(spec), api::print_spec(spec));
    }
  }
}

std::optional<std::uint64_t> ExperimentService::parse_fingerprint(
    std::string_view text) {
  if (text.rfind("0x", 0) == 0 || text.rfind("0X", 0) == 0) {
    text.remove_prefix(2);
  }
  if (text.empty() || text.size() > 16) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    int digit = 0;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return std::nullopt;
    }
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  return value;
}

std::shared_ptr<std::mutex> ExperimentService::sweep_lock(
    std::uint64_t sweep) {
  const std::lock_guard<std::mutex> lock(sweep_locks_mutex_);
  auto& slot = sweep_locks_[sweep];
  if (!slot) slot = std::make_shared<std::mutex>();
  return slot;
}

HttpResponse ExperimentService::handle(const HttpRequest& request,
                                       const std::string& client) {
  requests_total_.add();
  support::trace::Span span("serve.request " + request.path);
  const auto handle_start = std::chrono::steady_clock::now();
  // Observe the latency on every exit path; the histogram is a write-only
  // tap, so a scope guard keeps the routing below branch-free about it.
  struct LatencyGuard {
    support::metrics::Histogram& histogram;
    std::chrono::steady_clock::time_point start;
    ~LatencyGuard() {
      histogram.observe(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count());
    }
  } latency_guard{request_seconds_, handle_start};
  try {
    const std::string& path = request.path;
    if (path == "/v1/run") {
      if (request.method != "POST") {
        return json_error(405, "POST /v1/run (got " + request.method + ")");
      }
      requests_run_.add();
      return handle_run(request, client);
    }
    if (path.rfind("/v1/result/", 0) == 0) {
      if (request.method != "GET") return json_error(405, "GET only");
      requests_result_.add();
      return handle_result(path.substr(std::strlen("/v1/result/")), client);
    }
    if (path == "/v1/presets") {
      if (request.method != "GET") return json_error(405, "GET only");
      requests_presets_.add();
      return {200, "application/json", {}, api::render_presets_json(), false};
    }
    if (path == "/v1/status") {
      if (request.method != "GET") return json_error(405, "GET only");
      requests_status_.add();
      return handle_status();
    }
    if (path == "/metrics") {
      if (request.method != "GET") return json_error(405, "GET only");
      requests_metrics_.add();
      return handle_metrics();
    }
    if (path.rfind("/v1/progress/", 0) == 0) {
      if (request.method != "GET") return json_error(405, "GET only");
      requests_progress_.add();
      return handle_progress(path.substr(std::strlen("/v1/progress/")));
    }
    return json_error(404, "unknown endpoint " + path);
  } catch (const api::SpecError& e) {
    return json_error(400, e.what());
  } catch (const std::exception& e) {
    failures_.add();
    return json_error(500, e.what());
  }
}

HttpResponse ExperimentService::handle_run(const HttpRequest& request,
                                           const std::string& client) {
  // Spec sources are exclusive: a raw spec body XOR a ?preset= reference.
  const std::optional<std::string> preset = request.query_value("preset");
  const bool quick = request.query_value("quick").value_or("0") != "0";
  std::string text;
  if (!request.body.empty()) {
    if (preset) {
      return json_error(400,
                        "give a spec body or ?preset=..., not both");
    }
    text = request.body;
  } else if (preset) {
    text = api::print_spec(api::preset_spec(*preset, quick));
  } else {
    return json_error(400,
                      "POST /v1/run needs a spec body (parse_spec grammar) "
                      "or ?preset=NAME[&quick=1]");
  }

  // The CLI's resolver, with ?set= playing the role of repeated --set flags
  // -- this is what makes served payloads bitwise-identical to `ethsm run`
  // output.
  const api::ExperimentSpec spec =
      api::parse_spec(text, request.query_values("set"));
  const std::uint64_t fingerprint = api::spec_fingerprint(spec);
  const std::string canonical = api::print_spec(spec);
  table_.remember(fingerprint, canonical);
  return run_spec(fingerprint, canonical, client);
}

HttpResponse ExperimentService::handle_result(std::string_view hex,
                                              const std::string& client) {
  const std::optional<std::uint64_t> fingerprint = parse_fingerprint(hex);
  if (!fingerprint) {
    return json_error(400, "malformed fingerprint '" + std::string(hex) +
                               "' (want 16 hex digits)");
  }
  // Any spec this daemon knows (presets are preloaded, posted specs are
  // remembered) is served from the cache or recomputed -- with warm
  // checkpoints that recompute is a disk reload, which is exactly the
  // restart story. Every cached payload's spec is known, so an unknown
  // fingerprint is a 404 without a cache lookup.
  const std::optional<std::string> spec_text = table_.spec(*fingerprint);
  if (!spec_text) {
    return json_error(404, "unknown result fingerprint " + hex64(*fingerprint) +
                               "; POST the spec to /v1/run first");
  }
  return run_spec(*fingerprint, *spec_text, client);
}

HttpResponse ExperimentService::run_spec(std::uint64_t fingerprint,
                                         const std::string& spec_text,
                                         const std::string& client) {
  ResultTable::Ticket ticket = [&] {
    support::trace::Span cache_span("serve.cache_lookup");
    return table_.begin(fingerprint, client);
  }();
  switch (ticket.fate) {
    case ResultTable::Fate::hit:
      return sourced(std::move(ticket.payload), "cache");
    case ResultTable::Fate::rejected:
      return rejected_response();
    case ResultTable::Fate::follow: {
      // Dedupe: ride the computation some other request already started.
      support::trace::Span dedupe_span("serve.dedupe_wait");
      ResultTable::Outcome outcome = table_.wait(ticket);
      if (!outcome.ok) return json_error(500, outcome.payload);
      return sourced(std::move(outcome.payload), "dedup");
    }
    case ResultTable::Fate::lead:
      break;
  }

  bool ok = true;
  std::string payload;
  try {
    const api::ExperimentSpec spec = [&] {
      support::trace::Span parse_span("serve.parse_spec");
      return api::parse_spec(spec_text);
    }();
    // One writer per sweep (the checkpoint store's contract): distinct specs
    // can touch the same sweep, so take every sweep lock in sorted order.
    std::vector<std::uint64_t> sweeps = api::sweep_fingerprints(spec);
    std::sort(sweeps.begin(), sweeps.end());
    sweeps.erase(std::unique(sweeps.begin(), sweeps.end()), sweeps.end());
    std::vector<std::shared_ptr<std::mutex>> locks;
    locks.reserve(sweeps.size());
    for (const std::uint64_t sweep : sweeps) locks.push_back(sweep_lock(sweep));
    std::vector<std::unique_lock<std::mutex>> held;
    held.reserve(locks.size());
    for (const auto& lock : locks) held.emplace_back(*lock);

    api::RunOptions options;
    options.checkpoint.directory = config_.checkpoint_dir;
    const api::ExperimentResult result = [&] {
      support::trace::Span compute_span("serve.compute");
      return api::run(spec, options);
    }();
    held.clear();
    computations_.add();

    support::trace::Span render_span("serve.render");
    payload = api::render_json(api::provenance_normalized(result));
  } catch (const std::exception& e) {
    failures_.add();
    ok = false;
    payload = e.what();
  }
  table_.finish(fingerprint, ok, payload);
  if (!ok) return json_error(500, payload);
  return sourced(std::move(payload), "computed");
}

HttpResponse ExperimentService::handle_status() {
  const auto uptime = std::chrono::duration_cast<std::chrono::seconds>(
                          std::chrono::steady_clock::now() - started_)
                          .count();
  // Rendered from the same sources as GET /metrics: the route counters live
  // in registry_, the cache/dedupe/admission numbers in the table.
  const ResultTable::Stats table = table_.stats();
  std::ostringstream os;
  os << "{\n";
  os << "  \"uptime_seconds\": " << uptime << ",\n";
  os << "  \"requests\": {\"total\": " << requests_total_.value()
     << ", \"run\": " << requests_run_.value()
     << ", \"result\": " << requests_result_.value()
     << ", \"presets\": " << requests_presets_.value()
     << ", \"status\": " << requests_status_.value()
     << ", \"progress\": " << requests_progress_.value() << "},\n";
  os << "  \"cache\": {\"entries\": " << table.entries
     << ", \"capacity\": " << table.capacity << ", \"hits\": " << table.hits
     << ", \"misses\": " << table.misses
     << ", \"evictions\": " << table.evictions << "},\n";
  os << "  \"jobs\": {\"in_flight\": " << table.jobs
     << ", \"computed\": " << computations_.value()
     << ", \"failed\": " << failures_.value()
     << ", \"dedupe_attached\": " << table.attached << "},\n";
  os << "  \"admission\": {\"max_jobs_in_flight\": "
     << config_.admission.max_jobs_in_flight
     << ", \"per_client_jobs\": " << config_.admission.per_client_jobs
     << ", \"acquired\": " << table.jobs << ", \"rejected\": " << table.rejected
     << "},\n";
  os << "  \"queue_depth\": " << (queue_depth_ ? queue_depth_() : 0) << "\n";
  os << "}\n";
  HttpResponse response;
  response.body = os.str();
  return response;
}

HttpResponse ExperimentService::handle_metrics() {
  // The daemon's own counters first, then the process-wide engine taps
  // (solver, thread pool, checkpoint store, net sim) -- one scrape covers
  // every layer. Metric names are disjoint by construction (ethsm_serve_*
  // vs ethsm_<engine>_*), so concatenation is a valid exposition.
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4";
  response.body = registry_.render_prometheus() +
                  support::metrics::registry().render_prometheus();
  return response;
}

std::optional<std::string> ExperimentService::progress_snapshot(
    std::uint64_t fingerprint) {
  const std::optional<std::string> spec_text = table_.spec(fingerprint);
  if (!spec_text) return std::nullopt;
  const api::ExperimentSpec spec = api::parse_spec(*spec_text);

  std::ostringstream os;
  os << "{\"fingerprint\": \"" << hex64(fingerprint) << "\", \"computing\": "
     << (table_.running(fingerprint) ? "true" : "false")
     << ", \"cached\": " << (table_.contains(fingerprint) ? "true" : "false")
     << ", \"sweeps\": [";
  bool first = true;
  for (const std::uint64_t sweep : api::sweep_fingerprints(spec)) {
    // The read-only record scan of the store: safe against the concurrent
    // writer by the checkpoint writer/reader contract.
    const std::size_t records =
        support::read_checkpoint_records(config_.checkpoint_dir, sweep).size();
    os << (first ? "" : ", ");
    first = false;
    os << "{\"fingerprint\": \"" << hex64(sweep)
       << "\", \"records\": " << records << "}";
  }
  os << "]}\n";
  return os.str();
}

HttpResponse ExperimentService::handle_progress(std::string_view hex) {
  const std::optional<std::uint64_t> fingerprint = parse_fingerprint(hex);
  if (!fingerprint) {
    return json_error(400, "malformed fingerprint '" + std::string(hex) +
                               "' (want 16 hex digits)");
  }
  std::optional<std::string> snapshot = progress_snapshot(*fingerprint);
  if (!snapshot) {
    return json_error(404, "unknown fingerprint " + hex64(*fingerprint) +
                               "; POST the spec to /v1/run first");
  }
  HttpResponse response;
  response.body = std::move(*snapshot);
  return response;
}

}  // namespace ethsm::serve
