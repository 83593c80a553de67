// ExperimentService: the transport-free core of `ethsm serve` (ROADMAP:
// "experiment results as a service"). Maps parsed HTTP requests onto the
// experiment API and answers with rendered JSON:
//
//   POST /v1/run                 run a spec (body = parse_spec grammar text,
//                                or ?preset=NAME[&quick=1]); repeated ?set=
//                                query parameters apply like --set flags
//   GET  /v1/result/<hex>        result by spec fingerprint (cache, else a
//                                checkpoint-backed recompute of a known spec)
//   GET  /v1/presets             the preset registry (render_presets_json)
//   GET  /v1/status              observability counters
//   GET  /v1/progress/<hex>      checkpoint-record progress snapshot; the
//                                server streams it when ?follow=1
//
// Spec resolution is the CLI's own resolver (api::parse_spec of the preset's
// print_spec or the body, with each ?set= as a --set override) and results
// render through render_json of the provenance-normalized result, so a
// served payload is bitwise-identical to `ethsm run ... --format json` for
// the same spec -- asserted per preset by tests/serve/service_test.cpp.
//
// Layering: one ResultTable call decides each request's fate under one lock
// -- a repeat query is a cache hit, an identical concurrent spec attaches to
// the running computation, and a request that would *start* one is admitted
// or refused (429 + Retry-After when over budget). Cold cache misses reload
// sweep records from the CheckpointStore tier before computing anything.

#ifndef ETHSM_SERVE_SERVICE_H
#define ETHSM_SERVE_SERVICE_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "serve/http.h"
#include "serve/result_table.h"
#include "support/metrics.h"

namespace ethsm::serve {

struct ServiceConfig {
  /// Checkpoint directory backing every served computation (required: the
  /// store is the daemon's second cache tier and its restart persistence).
  std::string checkpoint_dir;
  /// Rendered JSON payloads the ResultTable keeps.
  std::size_t cache_entries = 256;
  AdmissionConfig admission;
};

class ExperimentService {
 public:
  explicit ExperimentService(ServiceConfig config);

  /// Answers one parsed request. `client` is the admission identity (the
  /// X-Ethsm-Client header when present, else the peer address -- the server
  /// resolves it). Never throws: internal errors map to 500 responses.
  [[nodiscard]] HttpResponse handle(const HttpRequest& request,
                                    const std::string& client);

  /// Progress snapshot JSON for a fingerprint the service knows; nullopt for
  /// an unknown one. Transport-free so the server can stream it repeatedly
  /// on ?follow=1 without re-routing through handle().
  [[nodiscard]] std::optional<std::string> progress_snapshot(
      std::uint64_t fingerprint);

  /// True while a computation for this fingerprint is running (the server's
  /// keep-streaming condition for ?follow=1).
  [[nodiscard]] bool computing(std::uint64_t fingerprint) const {
    return table_.running(fingerprint);
  }

  /// Connection-queue depth hook for /v1/status (wired by the server; the
  /// service itself is transport-free).
  void set_queue_depth_provider(std::function<std::size_t()> provider) {
    queue_depth_ = std::move(provider);
  }

  /// "0x" -free 16-digit lower-case hex fingerprint, as hex64 renders it;
  /// tolerant of an optional 0x prefix. nullopt on malformed input.
  [[nodiscard]] static std::optional<std::uint64_t> parse_fingerprint(
      std::string_view text);

  [[nodiscard]] const ResultTable& table() const noexcept { return table_; }

 private:
  HttpResponse handle_run(const HttpRequest& request,
                          const std::string& client);
  HttpResponse handle_result(std::string_view hex, const std::string& client);
  HttpResponse handle_status();
  HttpResponse handle_metrics();
  HttpResponse handle_progress(std::string_view hex);

  /// The table -> api::run path for a spec whose canonical text is
  /// `spec_text`.
  HttpResponse run_spec(std::uint64_t fingerprint, const std::string& spec_text,
                        const std::string& client);

  ServiceConfig config_;
  ResultTable table_;
  std::function<std::size_t()> queue_depth_;
  std::chrono::steady_clock::time_point started_;

  /// Per-sweep writer locks: api::run opens the checkpoint store for every
  /// sweep it touches, and the store's writer/reader contract allows one
  /// writer per sweep. Distinct specs can share sweep fingerprints, so the
  /// dedupe table alone does not serialize them -- these locks do.
  std::mutex sweep_locks_mutex_;
  std::map<std::uint64_t, std::shared_ptr<std::mutex>> sweep_locks_;
  [[nodiscard]] std::shared_ptr<std::mutex> sweep_lock(std::uint64_t sweep);

  /// The single source of truth for the daemon's counters: /v1/status and
  /// GET /metrics are two renderings of this per-instance registry (plus the
  /// process-wide metrics::registry() for the engine taps). Per-instance so
  /// one process hosting several services -- the test binary does -- keeps
  /// their counts separate. The cache/dedupe/admission statistics stay
  /// inside the ResultTable and surface here through callbacks, so no number
  /// is accounted twice.
  support::metrics::Registry registry_;
  support::metrics::Counter& requests_total_;
  support::metrics::Counter& requests_run_;
  support::metrics::Counter& requests_result_;
  support::metrics::Counter& requests_presets_;
  support::metrics::Counter& requests_status_;
  support::metrics::Counter& requests_progress_;
  support::metrics::Counter& requests_metrics_;
  support::metrics::Counter& computations_;
  support::metrics::Counter& failures_;
  support::metrics::Histogram& request_seconds_;
};

}  // namespace ethsm::serve

#endif  // ETHSM_SERVE_SERVICE_H
