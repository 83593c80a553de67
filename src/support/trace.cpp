#include "support/trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace ethsm::support::trace {

namespace {

struct Event {
  std::string name;
  std::uint64_t ts_us;
  std::uint64_t dur_us;
};

/// Per-thread event sink. The mutex is uncontended on the recording path
/// (only this thread appends) and exists so stop() can safely drain buffers
/// belonging to threads that are still alive (pool workers between jobs).
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<Event> events;
  int tid;
};

struct Global {
  std::atomic<bool> enabled{false};
  std::chrono::steady_clock::time_point t0;
  std::mutex mutex;  // guards buffers, path, next_tid
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::string path;
  int next_tid = 1;
};

Global& global() {
  static Global instance;
  return instance;
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto fresh = std::make_shared<ThreadBuffer>();
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mutex);
    fresh->tid = g.next_tid++;
    g.buffers.push_back(fresh);
    return fresh;
  }();
  return *buffer;
}

/// Minimal JSON string escape; span names are ASCII identifiers and route
/// paths, but be safe about quotes/backslashes/control bytes anyway.
void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

bool enabled() noexcept {
  return global().enabled.load(std::memory_order_relaxed);
}

std::uint64_t now_us() noexcept {
  Global& g = global();
  if (!g.enabled.load(std::memory_order_relaxed)) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - g.t0)
          .count());
}

void start(const std::string& path) {
  Global& g = global();
  {
    std::lock_guard<std::mutex> lock(g.mutex);
    g.path = path;
    for (auto& buffer : g.buffers) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
      buffer->events.clear();
    }
  }
  g.t0 = std::chrono::steady_clock::now();
  g.enabled.store(true, std::memory_order_release);
}

void complete_event(const std::string& name, std::uint64_t begin_us,
                    std::uint64_t end_us) {
  if (!enabled()) return;
  ThreadBuffer& buffer = local_buffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.events.push_back(
      {name, begin_us, end_us >= begin_us ? end_us - begin_us : 0});
}

bool stop() {
  Global& g = global();
  // false without an active trace: nothing was flushed. Lets callers (and
  // tests) distinguish "no trace running" from a successful write.
  if (!g.enabled.exchange(false, std::memory_order_acq_rel)) return false;

  std::string path;
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  {
    std::lock_guard<std::mutex> lock(g.mutex);
    path = g.path;
    for (auto& buffer : g.buffers) {
      std::vector<Event> drained;
      {
        std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
        drained.swap(buffer->events);
      }
      for (const Event& event : drained) {
        if (!first) out += ",";
        first = false;
        out += "\n{\"name\": \"";
        append_escaped(out, event.name);
        out += "\", \"cat\": \"ethsm\", \"ph\": \"X\", \"ts\": " +
               std::to_string(event.ts_us) +
               ", \"dur\": " + std::to_string(event.dur_us) +
               ", \"pid\": 1, \"tid\": " + std::to_string(buffer->tid) + "}";
      }
    }
  }
  out += "\n]}\n";

  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  file.write(out.data(), static_cast<std::streamsize>(out.size()));
  return static_cast<bool>(file.flush());
}

Span::Span(std::string name) {
  if (!enabled()) return;
  name_ = std::move(name);
  begin_us_ = now_us();
  active_ = true;
}

Span::Span(const char* name) {
  if (!enabled()) return;  // no string is built for a disarmed tracer
  name_ = name;
  begin_us_ = now_us();
  active_ = true;
}

Span::~Span() {
  if (!active_) return;
  complete_event(name_, begin_us_, now_us());
}

}  // namespace ethsm::support::trace
