// WorkerTransport: how `ethsm orchestrate` turns "run `ethsm <args>` for
// work unit U on worker slot S" into a local child process, and how it
// brings U's checkpoint records back to the coordinator afterwards.
//
// Both implementations ultimately spawn a *local* process (ssh is just a
// local binary too), so one scheduler loop drives both:
//
//   * LocalTransport -- N worker slots on this machine. Workers write their
//     private checkpoint directories under the coordinator's store
//     (<ckpt>/orchestrate/unit-<k>), so fetch() is the identity and a
//     retried unit resumes from whatever its killed predecessor persisted.
//
//   * SshTransport -- one slot per host. The ethsm command runs remotely
//     under `ssh -o BatchMode=yes` (single-quoted, so spec values with
//     spaces survive the remote shell), unit directories live under a
//     remote scratch root, and fetch() scp's the unit's *.ethsmck files
//     into a local staging directory for import. Hosts need the ethsm
//     binary (and any --spec/--study files at the same paths) installed;
//     see docs/OPERATIONS.md.
//
// The split keeps the coordinator (orchestrate.cpp) free of any
// local-vs-remote branches: it plans units, launches through command(),
// imports whatever fetch() returns, and retries/reassigns on failure.

#ifndef ETHSM_ORCHESTRATE_TRANSPORT_H
#define ETHSM_ORCHESTRATE_TRANSPORT_H

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace ethsm::orchestrate {

class WorkerTransport {
 public:
  virtual ~WorkerTransport() = default;

  /// Parallel capacity: units run on slots [0, slots()).
  [[nodiscard]] virtual std::size_t slots() const = 0;

  /// Display/manifest name of a slot ("local-0", "build-host-2", ...).
  [[nodiscard]] virtual std::string slot_name(std::size_t slot) const = 0;

  /// Checkpoint directory the worker process writes for `unit` -- a path on
  /// the worker's own filesystem, stable across attempts so a retried unit
  /// resumes from its predecessor's valid records.
  [[nodiscard]] virtual std::string unit_checkpoint_dir(
      std::size_t unit) const = 0;

  /// Scratch --out path of a unit (a results tree for a study, a file for
  /// one spec); discarded, as the coordinator's merge pass writes the real
  /// output.
  [[nodiscard]] virtual std::string unit_scratch_dir(std::size_t unit) const = 0;

  /// Local argv that executes `ethsm <ethsm_args...>` on `slot`.
  [[nodiscard]] virtual std::vector<std::string> command(
      std::size_t slot, const std::vector<std::string>& ethsm_args) const = 0;

  /// Makes `unit`'s checkpoint records readable on the coordinator after a
  /// worker process on `slot` ended (successfully or not -- a killed
  /// worker's partial records are recovered too). Returns a local directory
  /// to import from; `staging` is an empty local directory the transport
  /// may sync into. `log_path` captures any helper-process output.
  [[nodiscard]] virtual std::string fetch(std::size_t slot, std::size_t unit,
                                          const std::string& staging,
                                          const std::string& log_path) = 0;

  /// Best-effort removal of `unit`'s worker-side directories once its
  /// records are imported (keeps long orchestrations from accumulating
  /// per-unit scratch). Failures are ignored.
  virtual void cleanup(std::size_t slot, std::size_t unit) = 0;
};

// ------------------------------------------------------------------ local --

struct LocalTransportConfig {
  std::size_t workers = 2;
  /// Coordinator-local root for unit checkpoint/scratch dirs (typically
  /// <checkpoint-dir>/orchestrate).
  std::string work_root;
  /// ETHSM_THREADS for each worker process; 0 = leave the environment alone.
  std::size_t threads_per_worker = 0;
  /// Path to the ethsm binary workers execute.
  std::string binary;
};

class LocalTransport final : public WorkerTransport {
 public:
  explicit LocalTransport(LocalTransportConfig config);

  [[nodiscard]] std::size_t slots() const override { return config_.workers; }
  [[nodiscard]] std::string slot_name(std::size_t slot) const override;
  [[nodiscard]] std::string unit_checkpoint_dir(
      std::size_t unit) const override;
  [[nodiscard]] std::string unit_scratch_dir(std::size_t unit) const override;
  [[nodiscard]] std::vector<std::string> command(
      std::size_t slot,
      const std::vector<std::string>& ethsm_args) const override;
  [[nodiscard]] std::string fetch(std::size_t slot, std::size_t unit,
                                  const std::string& staging,
                                  const std::string& log_path) override;
  void cleanup(std::size_t slot, std::size_t unit) override;

 private:
  LocalTransportConfig config_;
};

// -------------------------------------------------------------------- ssh --

struct SshTransportConfig {
  std::vector<std::string> hosts;  ///< one worker slot per host
  /// ethsm binary path on the hosts (they share an install layout).
  std::string remote_binary = "ethsm";
  /// Remote scratch root for unit checkpoint/scratch dirs.
  std::string remote_root = "/tmp/ethsm-orchestrate";
  /// ETHSM_THREADS per remote worker; 0 = the remote default.
  std::size_t threads_per_worker = 0;
  /// Extra arguments before the host (port, identity file, ...).
  std::vector<std::string> ssh_args = {"-o", "BatchMode=yes"};
};

class SshTransport final : public WorkerTransport {
 public:
  explicit SshTransport(SshTransportConfig config);

  [[nodiscard]] std::size_t slots() const override {
    return config_.hosts.size();
  }
  [[nodiscard]] std::string slot_name(std::size_t slot) const override;
  [[nodiscard]] std::string unit_checkpoint_dir(
      std::size_t unit) const override;
  [[nodiscard]] std::string unit_scratch_dir(std::size_t unit) const override;
  [[nodiscard]] std::vector<std::string> command(
      std::size_t slot,
      const std::vector<std::string>& ethsm_args) const override;
  [[nodiscard]] std::string fetch(std::size_t slot, std::size_t unit,
                                  const std::string& staging,
                                  const std::string& log_path) override;
  void cleanup(std::size_t slot, std::size_t unit) override;

 private:
  SshTransportConfig config_;
};

/// Single-quotes `text` for a POSIX remote shell (ssh concatenates its
/// command words with spaces and hands them to the login shell).
[[nodiscard]] std::string shell_quote(const std::string& text);

}  // namespace ethsm::orchestrate

#endif  // ETHSM_ORCHESTRATE_TRANSPORT_H
