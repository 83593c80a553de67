#include "orchestrate/orchestrate.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "orchestrate/process.h"
#include "support/checkpoint.h"
#include "support/json.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace ethsm::orchestrate {

namespace {

using Clock = std::chrono::steady_clock;

Clock::duration from_ms(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

enum class UnitPhase { pending, running, done, failed };

struct UnitState {
  UnitPhase phase = UnitPhase::pending;
  int attempts = 0;
  Clock::time_point ready_at = Clock::time_point::min();  ///< backoff gate
  std::string worker;
  std::string last_error;
  std::size_t records = 0;
  Clock::time_point attempt_started;    ///< launch time of the running attempt
  std::uint64_t attempt_begin_us = 0;   ///< trace anchor for the attempt span
  double wall_ms = 0.0;                 ///< summed attempt wall time
};

/// Process-wide coordinator counters (support::metrics::registry()): unit
/// attempts and import volume, surfaced by GET /metrics and --metrics-out.
/// Import *bytes* are already accounted by the checkpoint layer
/// (ethsm_checkpoint_imported_bytes_total) because ImportSink goes through
/// CheckpointStore::import_directory in-process.
struct OrchestrateMetrics {
  support::metrics::Counter& attempts;
  support::metrics::Counter& units_ok;
  support::metrics::Counter& units_failed;
  support::metrics::Counter& records_imported;

  static OrchestrateMetrics& instance() {
    static OrchestrateMetrics metrics{
        support::metrics::registry().counter("ethsm_orchestrate_attempts_total"),
        support::metrics::registry().counter("ethsm_orchestrate_units_ok_total"),
        support::metrics::registry().counter(
            "ethsm_orchestrate_units_failed_total"),
        support::metrics::registry().counter(
            "ethsm_orchestrate_records_imported_total")};
    return metrics;
  }
};

struct SlotState {
  bool busy = false;
  bool quarantined = false;
  int consecutive_failures = 0;
  pid_t pid = -1;
  std::size_t unit = 0;
  bool kill_pending = false;
  Clock::time_point kill_at;
};

void reset_directory(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  std::filesystem::create_directories(path);
}

/// Lazily-opened coordinator-side stores, one per sweep fingerprint seen in
/// worker output. They live for the whole orchestration (one writer per
/// file) and are destroyed before the CLI's merge pass constructs its own.
class ImportSink {
 public:
  explicit ImportSink(std::string coordinator_dir)
      : coordinator_dir_(std::move(coordinator_dir)) {}

  /// Imports every valid record under `source_dir` (all fingerprints) into
  /// the coordinator's stores; returns how many records were new.
  std::size_t import_all(const std::string& source_dir) {
    std::size_t imported = 0;
    for (const auto& file : support::scan_checkpoint_directory(source_dir)) {
      if (!file.readable) continue;
      auto& store = stores_[file.fingerprint];
      if (!store) {
        store = std::make_unique<support::CheckpointStore>(coordinator_dir_,
                                                           file.fingerprint);
      }
      imported += store->import_directory(source_dir);
    }
    return imported;
  }

 private:
  std::string coordinator_dir_;
  std::map<std::uint64_t, std::unique_ptr<support::CheckpointStore>> stores_;
};

}  // namespace

KillPlan kill_plan_from_env() {
  KillPlan plan;
  const char* text = std::getenv("ETHSM_ORCHESTRATE_KILL");
  if (text == nullptr || *text == '\0') return plan;
  unsigned long unit = 0;
  unsigned long attempt = 0;
  double delay = 0.0;
  char* cursor = nullptr;
  unit = std::strtoul(text, &cursor, 10);
  if (cursor == text || *cursor != ':') return plan;
  const char* attempt_text = cursor + 1;
  attempt = std::strtoul(attempt_text, &cursor, 10);
  if (cursor == attempt_text || attempt == 0) return plan;
  if (*cursor == ':') {
    const char* delay_text = cursor + 1;
    delay = std::strtod(delay_text, &cursor);
    if (cursor == delay_text || *cursor != '\0') return plan;
  } else if (*cursor != '\0') {
    return plan;
  }
  plan.active = true;
  plan.unit = static_cast<std::size_t>(unit);
  plan.attempt = static_cast<int>(attempt);
  plan.delay_ms = delay;
  return plan;
}

OrchestrateOutcome run_orchestrate(const OrchestrateConfig& config) {
  support::trace::Span span("orchestrate.run");
  WorkerTransport* transport = config.transport;
  if (transport == nullptr) {
    throw std::invalid_argument("orchestrate: no transport");
  }
  if (transport->slots() == 0) {
    throw std::invalid_argument("orchestrate: transport has no worker slots");
  }
  if (config.units == 0) {
    throw std::invalid_argument("orchestrate: need at least one work unit");
  }

  const std::string log_dir = config.work_dir + "/logs";
  const std::string staging_root = config.work_dir + "/staging";
  std::filesystem::create_directories(log_dir);

  const auto emit = [&](const std::string& line) {
    if (config.status) config.status(line);
  };
  const auto shard_of = [&](std::size_t unit) {
    return std::to_string(unit) + "/" + std::to_string(config.units);
  };
  const int max_attempts = std::max(config.retry.attempts, 1);

  std::vector<UnitState> units(config.units);
  std::vector<SlotState> slots(transport->slots());
  ImportSink sink(config.coordinator_dir);
  OrchestrateOutcome outcome;

  const auto remaining = [&] {
    std::size_t n = 0;
    for (const UnitState& unit : units) {
      if (unit.phase == UnitPhase::pending || unit.phase == UnitPhase::running) {
        ++n;
      }
    }
    return n;
  };
  const auto active_slots = [&] {
    std::size_t n = 0;
    for (const SlotState& slot : slots) {
      if (!slot.quarantined) ++n;
    }
    return n;
  };
  const auto progress_line = [&] {
    std::size_t done = 0, running = 0, failed = 0;
    for (const UnitState& unit : units) {
      if (unit.phase == UnitPhase::done) ++done;
      if (unit.phase == UnitPhase::running) ++running;
      if (unit.phase == UnitPhase::failed) ++failed;
    }
    std::string line = std::to_string(done) + "/" +
                       std::to_string(config.units) + " units merged, " +
                       std::to_string(running) + " running";
    if (failed > 0) line += ", " + std::to_string(failed) + " FAILED";
    line += ", " + std::to_string(outcome.records_imported) +
            " records imported";
    return line;
  };

  const auto launch = [&](std::size_t s, std::size_t u) {
    SlotState& slot = slots[s];
    UnitState& unit = units[u];
    std::vector<std::string> args = config.base_args;
    args.push_back("--checkpoint-dir");
    args.push_back(transport->unit_checkpoint_dir(u));
    args.push_back("--shard");
    args.push_back(shard_of(u));
    args.push_back("--out");
    args.push_back(transport->unit_scratch_dir(u));
    ++unit.attempts;
    unit.phase = UnitPhase::running;
    unit.worker = transport->slot_name(s);
    unit.attempt_started = Clock::now();
    unit.attempt_begin_us = support::trace::now_us();
    if constexpr (support::metrics::kEnabled) {
      OrchestrateMetrics::instance().attempts.add();
    }
    const std::string log_path = log_dir + "/unit-" + std::to_string(u) +
                                 "-attempt-" + std::to_string(unit.attempts) +
                                 ".log";
    slot.pid = spawn_process(transport->command(s, args), log_path);
    slot.busy = true;
    slot.unit = u;
    slot.kill_pending = config.kill.active && config.kill.unit == u &&
                        config.kill.attempt == unit.attempts;
    if (slot.kill_pending) {
      slot.kill_at = Clock::now() + from_ms(config.kill.delay_ms);
      if (config.kill.delay_ms <= 0.0) {
        // The CI dead-worker smoke: take the worker down before it can
        // finish, deterministically.
        kill_process(slot.pid);
        slot.kill_pending = false;
      }
    }
    emit("unit " + std::to_string(u) + " (shard " + shard_of(u) + ") attempt " +
         std::to_string(unit.attempts) + " -> " + unit.worker);
  };

  const auto settle = [&](std::size_t s, const ExitStatus& status) {
    SlotState& slot = slots[s];
    UnitState& unit = units[slot.unit];
    slot.busy = false;
    slot.pid = -1;
    slot.kill_pending = false;

    // Import whatever the attempt persisted -- a clean exit's full shard or
    // a killed worker's prefix; either way the next attempt resumes from it.
    const std::string staging =
        staging_root + "/unit-" + std::to_string(slot.unit);
    reset_directory(staging);
    const std::string fetched = transport->fetch(
        s, slot.unit, staging,
        log_dir + "/unit-" + std::to_string(slot.unit) + "-sync.log");
    const std::size_t imported = sink.import_all(fetched);
    unit.records += imported;
    outcome.records_imported += imported;
    unit.wall_ms += std::chrono::duration<double, std::milli>(
                        Clock::now() - unit.attempt_started)
                        .count();
    if (support::trace::enabled()) {
      support::trace::complete_event(
          "orchestrate.unit " + std::to_string(slot.unit) + " attempt " +
              std::to_string(unit.attempts),
          unit.attempt_begin_us, support::trace::now_us());
    }
    if constexpr (support::metrics::kEnabled) {
      OrchestrateMetrics::instance().records_imported.add(imported);
    }

    if (status.ok()) {
      unit.phase = UnitPhase::done;
      if constexpr (support::metrics::kEnabled) {
        OrchestrateMetrics::instance().units_ok.add();
      }
      slot.consecutive_failures = 0;
      transport->cleanup(s, slot.unit);
      emit("unit " + std::to_string(slot.unit) + " ok on " + unit.worker +
           " (+" + std::to_string(imported) + " records; " + progress_line() +
           ")");
      return;
    }

    unit.last_error = status.describe();
    ++slot.consecutive_failures;
    if (!slot.quarantined && config.quarantine_after > 0 &&
        slot.consecutive_failures >= config.quarantine_after &&
        active_slots() > 1) {
      // A host that keeps failing stops receiving work; its queue drains
      // through the healthy slots. Never quarantine the last slot standing.
      slot.quarantined = true;
      ++outcome.slots_quarantined;
      emit("quarantining worker " + transport->slot_name(s) + " after " +
           std::to_string(slot.consecutive_failures) +
           " consecutive failures");
    }
    if (unit.attempts >= max_attempts) {
      unit.phase = UnitPhase::failed;
      if constexpr (support::metrics::kEnabled) {
        OrchestrateMetrics::instance().units_failed.add();
      }
      emit("unit " + std::to_string(slot.unit) + " FAILED after " +
           std::to_string(unit.attempts) + " attempt(s): " + unit.last_error);
      return;
    }
    unit.phase = UnitPhase::pending;
    unit.ready_at =
        Clock::now() + from_ms(config.retry.backoff_ms(unit.attempts));
    emit("unit " + std::to_string(slot.unit) + " attempt " +
         std::to_string(unit.attempts) + " failed on " + unit.worker + " (" +
         unit.last_error + "); retrying (+" + std::to_string(imported) +
         " records recovered)");
  };

  Clock::time_point last_heartbeat = Clock::now();
  while (remaining() > 0) {
    bool progressed = false;
    const Clock::time_point now = Clock::now();

    for (std::size_t s = 0; s < slots.size(); ++s) {
      SlotState& slot = slots[s];
      if (!slot.busy) continue;
      if (slot.kill_pending && now >= slot.kill_at) {
        kill_process(slot.pid);
        slot.kill_pending = false;
      }
      if (const std::optional<ExitStatus> status = try_wait(slot.pid)) {
        settle(s, *status);
        progressed = true;
      }
    }

    for (std::size_t s = 0; s < slots.size(); ++s) {
      SlotState& slot = slots[s];
      if (slot.busy || slot.quarantined) continue;
      for (std::size_t u = 0; u < units.size(); ++u) {
        if (units[u].phase != UnitPhase::pending) continue;
        if (units[u].ready_at > now) continue;
        launch(s, u);
        progressed = true;
        break;
      }
    }

    if (progressed) {
      last_heartbeat = now;
    } else if (remaining() > 0) {
      // Long-running units would otherwise go silent between scheduling
      // events; a periodic one-liner keeps the operator (and CI logs)
      // informed that workers are still alive.
      if (config.heartbeat_interval_ms > 0.0 &&
          now - last_heartbeat >= from_ms(config.heartbeat_interval_ms)) {
        emit("heartbeat: " + progress_line());
        last_heartbeat = now;
      }
      std::this_thread::sleep_for(from_ms(config.poll_interval_ms));
    }
  }

  std::error_code ec;
  std::filesystem::remove_all(staging_root, ec);

  outcome.units.reserve(config.units);
  for (std::size_t u = 0; u < config.units; ++u) {
    UnitOutcome row;
    row.unit = u;
    row.shard = shard_of(u);
    row.worker = units[u].worker;
    row.attempts = units[u].attempts;
    row.ok = units[u].phase == UnitPhase::done;
    row.error = units[u].last_error;
    row.records_imported = units[u].records;
    row.wall_ms = units[u].wall_ms;
    outcome.units.push_back(std::move(row));
    outcome.attempts_total += static_cast<std::size_t>(units[u].attempts);
    if (row.ok) {
      ++outcome.units_ok;
    } else {
      ++outcome.units_failed;
    }
  }
  emit(progress_line());
  return outcome;
}

void write_orchestrate_manifest(const OrchestrateOutcome& outcome,
                                const std::string& path) {
  using support::json_escape;
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot write orchestrate manifest " + path);
  }
  out << "{\n"
      << "  \"schema\": \"ethsm-orchestrate-manifest-v1\",\n"
      << "  \"status\": \"" << (outcome.ok() ? "ok" : "failed") << "\",\n"
      << "  \"units\": " << outcome.units.size() << ",\n"
      << "  \"units_ok\": " << outcome.units_ok << ",\n"
      << "  \"units_failed\": " << outcome.units_failed << ",\n"
      << "  \"attempts_total\": " << outcome.attempts_total << ",\n"
      << "  \"records_imported\": " << outcome.records_imported << ",\n"
      << "  \"slots_quarantined\": " << outcome.slots_quarantined << ",\n"
      << "  \"shards\": [";
  for (std::size_t i = 0; i < outcome.units.size(); ++i) {
    const UnitOutcome& unit = outcome.units[i];
    out << (i ? ",\n" : "\n") << "    {\"unit\": " << unit.unit
        << ", \"shard\": \"" << json_escape(unit.shard) << "\", \"worker\": \""
        << json_escape(unit.worker) << "\", \"attempts\": " << unit.attempts
        << ", \"status\": \"" << (unit.ok ? "ok" : "failed")
        << "\", \"records_imported\": " << unit.records_imported;
    if (!unit.ok) {
      out << ", \"error\": \"" << json_escape(unit.error) << "\"";
    }
    // The masked per-unit timing object (see StudyEntryTiming: same flat
    // shape, same `,\s*"timing": \{[^}]*\}` masking regex). Keys must stay
    // flat -- no nested braces.
    char wall[32];
    std::snprintf(wall, sizeof(wall), "%.3f", unit.wall_ms);
    out << ", \"timing\": {\"wall_ms\": " << wall << "}";
    out << "}";
  }
  out << "\n  ]\n}\n";
  if (!out) {
    throw std::runtime_error("failed writing orchestrate manifest " + path);
  }
}

}  // namespace ethsm::orchestrate
