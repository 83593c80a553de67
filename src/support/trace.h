// Span-based tracer emitting Chrome trace-event JSON ("Trace Event Format",
// complete events, ph == "X"), loadable in Perfetto / chrome://tracing.
// Enabled at runtime by `ethsm run|serve|orchestrate --trace FILE`; when
// disabled (the default) a Span is one relaxed atomic load and nothing is
// recorded, so tracing obeys the same write-only-tap contract as metrics.
//
// Threading model: each thread appends complete events to a thread-local
// buffer registered once in a global list; buffers carry a small mutex that
// is only contended at stop() time, when the writer merges every buffer and
// renders `{"traceEvents": [...]}`. Spans record wall time from a steady
// clock anchored at start(), in integer microseconds (the format's unit).
#pragma once

#include <cstdint>
#include <string>

namespace ethsm::support::trace {

/// True between start() and stop(). One relaxed load; safe on hot paths.
bool enabled() noexcept;

/// Arm the tracer: clear previously collected events, anchor t0, remember
/// `path` as the output file for stop(). Not reentrant with itself.
void start(const std::string& path);

/// Disarm, merge every thread's buffer and write the trace file remembered
/// by start(). True when a trace was active and its file was written; false
/// when the tracer was never armed or the file cannot be written (the
/// tracer is disarmed either way).
bool stop();

/// Current trace timestamp in microseconds since start(); 0 when disarmed.
std::uint64_t now_us() noexcept;

/// Record one complete event directly (begin timestamp taken by the caller
/// via now_us()). Prefer Span below; this exists for call sites whose scope
/// does not nest cleanly.
void complete_event(const std::string& name, std::uint64_t begin_us,
                    std::uint64_t end_us);

/// RAII span: records a complete event covering its lifetime when tracing
/// is armed at construction. The name is copied, so dynamic names (route
/// paths, study-cell names) are fine. With the tracer disarmed, a span
/// named by a `const char*` costs one relaxed load (per-job spans use it);
/// a std::string name is built by the caller either way.
class Span {
 public:
  explicit Span(const char* name);
  explicit Span(std::string name);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

 private:
  std::string name_;
  std::uint64_t begin_us_ = 0;
  bool active_ = false;
};

}  // namespace ethsm::support::trace
