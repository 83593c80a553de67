#include "orchestrate/transport.h"

#include <filesystem>
#include <system_error>

#include "orchestrate/process.h"

namespace ethsm::orchestrate {
namespace {

std::string unit_dir_name(std::size_t unit) {
  return "unit-" + std::to_string(unit);
}

}  // namespace

std::string shell_quote(const std::string& text) {
  // 'single quotes' pass everything verbatim except ' itself, which has to
  // be spliced as '\'' (close, literal quote, reopen).
  std::string quoted = "'";
  for (const char c : text) {
    if (c == '\'') {
      quoted += "'\\''";
    } else {
      quoted += c;
    }
  }
  quoted += '\'';
  return quoted;
}

// ------------------------------------------------------------------ local --

LocalTransport::LocalTransport(LocalTransportConfig config)
    : config_(std::move(config)) {}

std::string LocalTransport::slot_name(std::size_t slot) const {
  return "local-" + std::to_string(slot);
}

std::string LocalTransport::unit_checkpoint_dir(std::size_t unit) const {
  return config_.work_root + "/" + unit_dir_name(unit) + "/ckpt";
}

std::string LocalTransport::unit_scratch_dir(std::size_t unit) const {
  return config_.work_root + "/" + unit_dir_name(unit) + "/out";
}

std::vector<std::string> LocalTransport::command(
    std::size_t /*slot*/, const std::vector<std::string>& ethsm_args) const {
  std::vector<std::string> argv;
  if (config_.threads_per_worker > 0) {
    // env(1) keeps spawn_process exec-only: no setenv between fork and exec.
    argv = {"env",
            "ETHSM_THREADS=" + std::to_string(config_.threads_per_worker)};
  }
  argv.push_back(config_.binary);
  argv.insert(argv.end(), ethsm_args.begin(), ethsm_args.end());
  return argv;
}

std::string LocalTransport::fetch(std::size_t /*slot*/, std::size_t unit,
                                  const std::string& /*staging*/,
                                  const std::string& /*log_path*/) {
  // Workers already wrote into the coordinator's filesystem.
  return unit_checkpoint_dir(unit);
}

void LocalTransport::cleanup(std::size_t /*slot*/, std::size_t unit) {
  std::error_code ec;
  std::filesystem::remove_all(
      config_.work_root + "/" + unit_dir_name(unit), ec);
}

// -------------------------------------------------------------------- ssh --

SshTransport::SshTransport(SshTransportConfig config)
    : config_(std::move(config)) {}

std::string SshTransport::slot_name(std::size_t slot) const {
  return config_.hosts.at(slot);
}

std::string SshTransport::unit_checkpoint_dir(std::size_t unit) const {
  return config_.remote_root + "/" + unit_dir_name(unit) + "/ckpt";
}

std::string SshTransport::unit_scratch_dir(std::size_t unit) const {
  return config_.remote_root + "/" + unit_dir_name(unit) + "/out";
}

std::vector<std::string> SshTransport::command(
    std::size_t slot, const std::vector<std::string>& ethsm_args) const {
  // ssh joins its command words with spaces and feeds the result to the
  // remote login shell, so the whole remote command is built as one
  // shell-quoted string here.
  std::string remote;
  if (config_.threads_per_worker > 0) {
    remote += "ETHSM_THREADS=" + std::to_string(config_.threads_per_worker) +
              " ";
  }
  remote += shell_quote(config_.remote_binary);
  for (const std::string& arg : ethsm_args) {
    remote.append(" ").append(shell_quote(arg));
  }

  std::vector<std::string> argv = {"ssh"};
  argv.insert(argv.end(), config_.ssh_args.begin(), config_.ssh_args.end());
  argv.push_back(config_.hosts.at(slot));
  argv.push_back(remote);
  return argv;
}

std::string SshTransport::fetch(std::size_t slot, std::size_t unit,
                                const std::string& staging,
                                const std::string& log_path) {
  // Pull the unit's record files into local staging. scp exits nonzero when
  // the glob matches nothing (e.g. the worker died before its first append);
  // an empty staging directory imports zero records, which is exactly what
  // that situation means, so the exit status is ignored.
  std::vector<std::string> argv = {"scp"};
  argv.insert(argv.end(), config_.ssh_args.begin(), config_.ssh_args.end());
  argv.push_back(config_.hosts.at(slot) + ":" + unit_checkpoint_dir(unit) +
                 "/*.ethsmck");
  argv.push_back(staging + "/");
  (void)run_and_wait(argv, log_path);
  return staging;
}

void SshTransport::cleanup(std::size_t slot, std::size_t unit) {
  std::vector<std::string> argv = {"ssh"};
  argv.insert(argv.end(), config_.ssh_args.begin(), config_.ssh_args.end());
  argv.push_back(config_.hosts.at(slot));
  argv.push_back("rm -rf " + shell_quote(config_.remote_root + "/" +
                                         unit_dir_name(unit)));
  (void)run_and_wait(argv, "");
}

}  // namespace ethsm::orchestrate
