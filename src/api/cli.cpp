#include "api/cli.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <string_view>
#include <vector>

#include "api/presets.h"
#include "api/render.h"
#include "api/runner.h"
#include "api/spec.h"
#include "api/study.h"
#include "orchestrate/orchestrate.h"
#include "orchestrate/process.h"
#include "orchestrate/transport.h"
#include "serve/server.h"
#include "support/checkpoint.h"
#include "support/json.h"
#include "support/metrics.h"
#include "support/table.h"
#include "support/thread_pool.h"
#include "support/trace.h"

namespace ethsm::api {

namespace {

using support::hex64;

constexpr const char* kUsage =
    "usage:\n"
    "  ethsm list [--format table|json]\n"
    "  ethsm print <preset> [--quick] [--set key=value ...]\n"
    "  ethsm run <preset> | --spec FILE\n"
    "            [--quick] [--set key=value ...]\n"
    "            [--format table|csv|json] [--out FILE]\n"
    "            [--checkpoint-dir DIR | --resume] [--shard k/N]\n"
    "            [--max-new-jobs N]\n"
    "            [--trace FILE] [--metrics-out FILE]\n"
    "  ethsm run --all | --study FILE     (writes a results tree + manifest)\n"
    "            [--quick] [--set key=value ...] [--out DIR]\n"
    "            [--checkpoint-dir DIR | --resume] [--shard k/N]\n"
    "            [--max-new-jobs N] [--retry N]\n"
    "            [--trace FILE] [--metrics-out FILE]\n"
    "  ethsm expand <study file> | --all [--quick] [--set key=value ...]\n"
    "  ethsm checkpoint-stats <dir> [--prune [--dry-run]]\n"
    "                               [--keep-study FILE ...]\n"
    "                               [--set key=value ...]\n"
    "  ethsm serve [--port N] [--host ADDR] [--checkpoint-dir DIR]\n"
    "              [--workers N] [--cache-entries N]\n"
    "              [--max-inflight N] [--client-jobs N]\n"
    "              [--port-file FILE] [--quiet] [--trace FILE]\n"
    "  ethsm orchestrate <preset> | --spec FILE | --study FILE | --all\n"
    "              [--quick] [--set key=value ...]\n"
    "              [--workers N | --hosts a,b,c] [--units M] [--retry N]\n"
    "              [--checkpoint-dir DIR] [--format table|csv|json]\n"
    "              [--out PATH] [--worker-threads N]\n"
    "              [--remote-binary PATH] [--remote-root DIR]\n"
    "              [--quiet] [--trace FILE]\n";

[[noreturn]] void usage_fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

/// The value of a numeric flag: decimal digits only, the whole string (no
/// sign, no blanks -- as support::parse_shard), within [min, max]; a usage
/// error otherwise.
std::uint64_t parse_count(const char* flag, std::string_view text,
                          std::uint64_t min,
                          std::uint64_t max =
                              std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t value = 0;
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error != std::errc() || end != last || value < min || value > max) {
    const std::string want =
        max != std::numeric_limits<std::uint64_t>::max()
            ? "an integer in [" + std::to_string(min) + ", " +
                  std::to_string(max) + "]"
            : (min == 0 ? "a non-negative integer" : "a positive integer");
    usage_fail("malformed " + std::string(flag) + " (want " + want + ")");
  }
  return value;
}

int cmd_list(int argc, char** argv, int start) {
  std::string format = "table";
  for (int i = start; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--format") {
      if (i + 1 >= argc) usage_fail("--format needs a value");
      format = argv[++i];
    } else {
      usage_fail("unknown list argument '" + std::string(arg) + "'");
    }
  }
  if (format == "json") {
    // The same rendering GET /v1/presets serves: spec text + fingerprint per
    // preset and variant, so scripts can feed `ethsm serve` without parsing
    // the human table.
    std::cout << render_presets_json();
    return 0;
  }
  if (format != "table") {
    usage_fail("unknown list format '" + format + "' (want table or json)");
  }
  support::TextTable table({"preset", "kind", "description"});
  for (const Preset& preset : presets()) {
    table.add_row({preset.name,
                   std::string(to_string(preset.spec(false).kind)),
                   preset.description});
  }
  table.print(std::cout);
  std::cout << "\nRun one with `ethsm run <preset>` (add --quick for smaller "
               "grids), or start from `ethsm print <preset>` to write your "
               "own spec file.\n";
  return 0;
}

std::string read_text_file(const std::string& path, const char* what) {
  std::ifstream in(path);
  if (!in) {
    throw SpecError("cannot read " + std::string(what) + " '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Shared spec resolution of `run` and `print`: preset or --spec file, then
/// --set overrides through the same validated key=value path.
struct SpecRequest {
  std::string preset;              ///< empty when --spec is used
  std::string spec_file;
  std::string study_file;          ///< --study FILE (study-shaped run)
  bool all = false;                ///< --all (built-in paper study)
  bool quick = false;
  std::vector<std::string> overrides;

  [[nodiscard]] bool is_study() const {
    return all || !study_file.empty();
  }

  [[nodiscard]] ExperimentSpec resolve() const {
    const std::string text = spec_file.empty()
                                 ? print_spec(preset_spec(preset, quick))
                                 : read_text_file(spec_file, "spec file");
    return parse_spec(text, overrides);
  }

  /// Study-shaped expansion: the preset registry behind --all, or the study
  /// file's matrix/variant grammar; --set overrides apply to every cell.
  struct Expansion {
    std::string name;
    std::string title;
    std::vector<StudyEntry> entries;
  };

  [[nodiscard]] Expansion expand() const {
    Expansion expansion;
    if (all) {
      expansion.name = "paper";
      expansion.title = "Full-paper artefact: every registered preset";
      expansion.entries = paper_study_entries(quick);
      if (!overrides.empty()) {
        // Same --set path as single runs: re-resolve each preset's canonical
        // entries with the overrides appended.
        for (StudyEntry& entry : expansion.entries) {
          entry.spec = parse_spec(print_spec(entry.spec), overrides);
        }
      }
    } else {
      const StudySpec study =
          parse_study(read_text_file(study_file, "study file"));
      expansion.name = study.name;
      expansion.title = study.title;
      expansion.entries = expand_study(study, quick, overrides);
    }
    return expansion;
  }
};

struct RunArgs {
  SpecRequest request;
  OutputFormat format = OutputFormat::table;
  bool format_set = false;
  std::string out_file;  ///< file for single runs, directory for studies
  support::SweepCheckpoint checkpoint;
  int retry = 0;  ///< --retry N: extra attempts per failing study cell
  std::string trace_file;   ///< --trace FILE: Chrome trace-event JSON
  std::string metrics_out;  ///< --metrics-out FILE: registry JSON snapshot
};

/// RAII for --trace FILE: starts the process tracer on construction (when a
/// path was given) and flushes the Chrome trace-event JSON on scope exit --
/// including the early-return and exception paths.
class TraceGuard {
 public:
  explicit TraceGuard(const std::string& path) : active_(!path.empty()) {
    if (active_) support::trace::start(path);
  }
  ~TraceGuard() {
    if (active_) support::trace::stop();
  }
  TraceGuard(const TraceGuard&) = delete;
  TraceGuard& operator=(const TraceGuard&) = delete;

 private:
  bool active_;
};

/// Reads the value of the flag being parsed; a usage error when it is last.
using FlagValue = std::function<const char*(const char* flag)>;
/// A subcommand's own flags: consumes `arg` (and any value) or returns false.
using OwnFlags = std::function<bool(std::string_view arg, const FlagValue& next)>;

/// A subcommand's wording of the shared spec-source errors.
struct SourceUsage {
  const char* unknown;   ///< prefix of the unknown-flag error
  const char* missing;   ///< no source given
  const char* conflict;  ///< more than one source given
  /// expand: the positional names a study file, and only --quick, --all and
  /// --set are shared.
  bool studies_only = false;
};

constexpr SourceUsage kRunUsage{
    "unknown argument ",
    "run/print need a preset name, --spec FILE, --study FILE or --all",
    "pick exactly one of <preset>, --spec, --study and --all"};
constexpr SourceUsage kOrchestrateUsage{
    "unknown orchestrate argument ",
    "orchestrate needs a preset name, --spec FILE, --study FILE or --all",
    "pick exactly one of <preset>, --spec, --study and --all"};
constexpr SourceUsage kExpandUsage{"unknown argument ",
                                   "expand needs a study file or --all",
                                   "expand takes a study file or --all, not both",
                                   true};

/// The flags run, print, expand and orchestrate share: the spec source
/// (<preset>, --spec, --study or --all, exactly one) with --quick and --set,
/// and the artefact's --format, --out and --retry. Everything else goes to
/// `own` first; what it refuses is an unknown flag or a positional.
void parse_source_args(RunArgs& args, const SourceUsage& usage, int argc,
                       char** argv, int first, const OwnFlags& own = {}) {
  SpecRequest& request = args.request;
  const bool all_flags = !usage.studies_only;
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const FlagValue next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) usage_fail(std::string(what) + " needs a value");
      return argv[++i];
    };
    if (arg == "--quick") {
      request.quick = true;
    } else if (arg == "--all") {
      request.all = true;
    } else if (arg == "--set") {
      request.overrides.emplace_back(next("--set"));
    } else if (all_flags && arg == "--spec") {
      request.spec_file = next("--spec");
    } else if (all_flags && arg == "--study") {
      request.study_file = next("--study");
    } else if (all_flags && arg == "--format") {
      args.format = output_format_from_string(next("--format"));
      args.format_set = true;
    } else if (all_flags && arg == "--out") {
      args.out_file = next("--out");
    } else if (all_flags && arg == "--retry") {
      args.retry =
          static_cast<int>(parse_count("--retry", next("--retry"), 0, 100));
    } else if (own && own(arg, next)) {
      continue;
    } else if (!arg.empty() && arg.front() == '-') {
      usage_fail(usage.unknown + std::string(arg));
    } else if (usage.studies_only && request.study_file.empty()) {
      request.study_file = std::string(arg);
    } else if (!usage.studies_only && request.preset.empty() &&
               request.spec_file.empty()) {
      request.preset = std::string(arg);
    } else {
      usage_fail("unexpected argument " + std::string(arg));
    }
  }
  const int sources = (request.preset.empty() ? 0 : 1) +
                      (request.spec_file.empty() ? 0 : 1) +
                      (request.study_file.empty() ? 0 : 1) +
                      (request.all ? 1 : 0);
  if (sources == 0) usage_fail(usage.missing);
  if (sources > 1) usage_fail(usage.conflict);
  if (request.is_study() && args.format_set) {
    usage_fail("--format does not apply to study runs: the results tree "
               "always carries table.txt + data.csv + data.json per spec");
  }
}

RunArgs parse_run_args(int argc, char** argv, int first) {
  RunArgs args;
  parse_source_args(
      args, kRunUsage, argc, argv, first,
      [&](std::string_view arg, const FlagValue& next) {
        if (arg == "--checkpoint-dir") {
          args.checkpoint.directory = next("--checkpoint-dir");
        } else if (arg == "--resume") {
          if (args.checkpoint.directory.empty()) {
            args.checkpoint.directory = "ethsm-checkpoints";
          }
        } else if (arg == "--shard") {
          const auto shard = support::parse_shard(next("--shard"));
          if (!shard) {
            usage_fail("malformed --shard (want k/N with 0 <= k < N)");
          }
          args.checkpoint.shard = *shard;
        } else if (arg == "--max-new-jobs") {
          args.checkpoint.max_new_jobs = static_cast<std::size_t>(
              parse_count("--max-new-jobs", next("--max-new-jobs"), 0));
        } else if (arg == "--trace") {
          args.trace_file = next("--trace");
        } else if (arg == "--metrics-out") {
          args.metrics_out = next("--metrics-out");
        } else {
          return false;
        }
        return true;
      });
  if (!args.checkpoint.shard.is_whole_sweep() &&
      args.checkpoint.directory.empty()) {
    usage_fail("--shard requires --checkpoint-dir (shards merge through disk; "
               "without it this shard's work would be discarded)");
  }
  if (args.retry > 0 && !args.request.is_study()) {
    usage_fail("--retry applies to study runs (--study FILE or --all): a "
               "single run's failure already exits with the error");
  }
  return args;
}

bool write_or_print(const std::string& payload, const std::string& out_file) {
  if (out_file.empty()) {
    std::cout << payload;
    return true;
  }
  // `--out results/fig8.json` into a directory that does not exist yet should
  // create the parents, not die on a bare stream-open error.
  const std::filesystem::path parent =
      std::filesystem::path(out_file).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    if (ec) {
      std::fprintf(stderr, "error: cannot create directory %s for --out: %s\n",
                   parent.string().c_str(), ec.message().c_str());
      return false;
    }
  }
  std::ofstream out(out_file);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s: %s\n", out_file.c_str(),
                 std::strerror(errno));
    return false;
  }
  out << payload;
  return static_cast<bool>(out);
}

/// `ethsm run --all` / `ethsm run --study FILE`: expand, execute with one
/// shared checkpoint + budget, write the results tree. --all puts the preset
/// directories at <out> directly (the one-command full-paper artefact);
/// a named study nests under <out>/<study name>.
int cmd_run_study(const RunArgs& args) {
  const SpecRequest::Expansion expansion = args.request.expand();
  const std::string out_base =
      args.out_file.empty() ? std::string("ethsm-results") : args.out_file;
  const std::string out_root =
      args.request.all
          ? out_base
          : (std::filesystem::path(out_base) / expansion.name).string();

  std::cout << "== study " << expansion.name << ": "
            << expansion.entries.size() << " spec(s) ==\n"
            << "   sweep threads: "
            << support::ThreadPool::global().concurrency()
            << " (override with ETHSM_THREADS)\n";
  const support::ShardSpec& shard = args.checkpoint.shard;
  if (!shard.is_whole_sweep()) {
    std::cout << "   shard " << shard.index << "/" << shard.count
              << ": this stripe of every checkpointed sweep; cells without "
                 "one are left to the merge pass (a final run without "
                 "--shard)\n";
  }

  RunOptions options;
  options.checkpoint = args.checkpoint;
  StudyFailurePolicy failure;
  failure.retries = args.retry;
  const StudyResult study = run_study(
      expansion.name, expansion.title, expansion.entries, options,
      [&](std::size_t index, std::size_t total, const StudyEntryResult& e) {
        std::cout << "[" << index << "/" << total << "] " << e.name << ": ";
        if (e.result.skipped) {
          std::cout << "skipped (no checkpointed sweep; left to the merge "
                       "pass)";
        } else if (e.failed) {
          std::cout << "FAILED after " << e.attempts << " attempt"
                    << (e.attempts == 1 ? "" : "s") << ": " << e.error;
        } else if (e.result.complete()) {
          std::cout << "complete";
        } else {
          std::cout << "partial ("
                    << e.result.outcome.loaded + e.result.outcome.computed
                    << " of " << e.result.outcome.jobs_total << " jobs)";
        }
        std::cout << "\n" << std::flush;
      },
      failure);

  write_study_results(study, out_root);

  if (study.checkpoint_enabled) {
    std::cout << support::describe(args.checkpoint, study.outcome) << "\n";
  }
  if (!study.complete()) {
    if (!shard.is_whole_sweep()) {
      std::cout << "Partial study (shard): run the remaining shards, then "
                   "merge with a final run sharing --checkpoint-dir and no "
                   "--shard.\n";
    } else {
      std::cout << "Partial study: some sweeps are missing jobs; re-run with "
                   "the same --checkpoint-dir to finish.\n";
    }
  }
  std::size_t written = 0;
  for (const StudyEntryResult& e : study.entries) {
    if (!e.result.skipped && !e.failed) ++written;
  }
  std::cout << "Results under " << out_root << " (" << written
            << " spec directories + manifest.json)\n";

  if (study.any_failed()) {
    // Fail-soft summary: the siblings' artefacts are on disk and the
    // manifest records every failure; the nonzero exit makes CI notice.
    support::TextTable failures({"cell", "attempts", "error"});
    for (const StudyEntryResult& e : study.entries) {
      if (!e.failed) continue;
      failures.add_row({e.name, std::to_string(e.attempts), e.error});
    }
    std::cout << "\nFailed cells (status=failed in manifest.json; siblings "
                 "completed"
              << (args.retry > 0
                      ? "):\n"
                      : "; re-run with --retry N for transient errors):\n");
    failures.print(std::cout);
    return 1;
  }
  return 0;
}

int cmd_run_single(const RunArgs& args) {
  const ExperimentSpec spec = args.request.resolve();
  RunOptions options;
  options.checkpoint = args.checkpoint;
  const ExperimentResult result = run(spec, options);

  switch (args.format) {
    case OutputFormat::table: {
      std::ostringstream os;
      render_text(result, os);
      if (!write_or_print(os.str(), args.out_file)) return 1;
      break;
    }
    case OutputFormat::csv: {
      if (!result.complete()) {
        render_text(result, std::cout);  // progress + partial notice
        return 0;
      }
      if (!write_or_print(render_csv(result), args.out_file)) return 1;
      break;
    }
    case OutputFormat::json:
      if (!write_or_print(render_json(result), args.out_file)) return 1;
      break;
  }
  return 0;
}

int cmd_run(const RunArgs& args) {
  const TraceGuard trace(args.trace_file);
  const int rc =
      args.request.is_study() ? cmd_run_study(args) : cmd_run_single(args);
  if (!args.metrics_out.empty()) {
    // Snapshot of the process-wide engine counters (solver, thread pool,
    // checkpoint, net sim) after the run -- the batch-mode analogue of the
    // daemon's GET /metrics. Written even for a failed run: the counters up
    // to the failure are exactly what one wants to look at.
    if (!write_or_print(support::metrics::registry().render_json(),
                        args.metrics_out)) {
      return rc == 0 ? 1 : rc;
    }
  }
  return rc;
}

int cmd_print(int argc, char** argv, int first) {
  const RunArgs args = parse_run_args(argc, argv, first);
  if (args.request.is_study()) {
    usage_fail("print takes a preset or --spec FILE; use `ethsm expand` for "
               "studies");
  }
  std::cout << print_spec(args.request.resolve());
  return 0;
}

/// `ethsm expand <study file> | --all`: print every concrete spec the study
/// expands to, in execution order, for inspection before a long run.
int cmd_expand(int argc, char** argv, int first) {
  RunArgs args;
  parse_source_args(args, kExpandUsage, argc, argv, first);

  const SpecRequest::Expansion expansion = args.request.expand();
  std::cout << "# study " << expansion.name << ": "
            << expansion.entries.size() << " spec(s)\n";
  for (const StudyEntry& entry : expansion.entries) {
    std::cout << "\n# --- " << entry.name << " (dir: " << entry.dir
              << ") ---\n"
              << print_spec(entry.spec);
  }
  return 0;
}

int cmd_checkpoint_stats(int argc, char** argv, int first) {
  std::string directory;
  bool prune = false;
  bool dry_run = false;
  std::vector<std::string> keep_studies;
  std::vector<std::string> keep_overrides;
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--prune") {
      prune = true;
    } else if (arg == "--dry-run") {
      dry_run = true;
    } else if (arg == "--keep-study") {
      if (i + 1 >= argc) usage_fail("--keep-study needs a study file");
      keep_studies.emplace_back(argv[++i]);
    } else if (arg == "--set") {
      if (i + 1 >= argc) usage_fail("--set needs key=value");
      keep_overrides.emplace_back(argv[++i]);
    } else if (!arg.empty() && arg.front() == '-') {
      usage_fail("unknown argument " + std::string(arg));
    } else if (directory.empty()) {
      directory = std::string(arg);
    } else {
      usage_fail("unexpected argument " + std::string(arg));
    }
  }
  if (directory.empty()) usage_fail("checkpoint-stats needs a directory");
  if (!keep_overrides.empty() && keep_studies.empty()) {
    usage_fail("--set on checkpoint-stats only applies to --keep-study "
               "expansions");
  }
  if (dry_run && !prune) {
    usage_fail("--dry-run modifies --prune (print what would be deleted); "
               "plain checkpoint-stats already never deletes");
  }

  // Who references which fingerprint (registered presets, quick + full).
  // Built before the empty-directory early return so a typo'd --keep-study
  // path or a bad --set is reported even when there is nothing to scan.
  std::map<std::uint64_t, std::set<std::string>> owners;
  for (const auto& ref : referenced_fingerprints()) {
    owners[ref.fingerprint].insert(ref.owner);
  }
  // Custom studies sharing the directory are not in the preset registry, so
  // --prune would eat their records; --keep-study adds a study file's whole
  // expansion (quick and full variants both) to the keep-set. --set changes
  // the sweep fingerprints, so a study that was *run* with --set must be
  // kept with the same --set here -- the unmodified expansion is always
  // included as well.
  for (const std::string& path : keep_studies) {
    const StudySpec study = parse_study(read_text_file(path, "study file"));
    for (const bool quick : {false, true}) {
      for (const StudyEntry& entry : expand_study(study, quick)) {
        for (std::uint64_t fp : sweep_fingerprints(entry.spec)) {
          owners[fp].insert(quick ? study.name + " --quick" : study.name);
        }
      }
      if (keep_overrides.empty()) continue;
      for (const StudyEntry& entry :
           expand_study(study, quick, keep_overrides)) {
        for (std::uint64_t fp : sweep_fingerprints(entry.spec)) {
          owners[fp].insert((quick ? study.name + " --quick" : study.name) +
                            " --set");
        }
      }
    }
  }

  const auto files = support::scan_checkpoint_directory(directory);
  if (files.empty()) {
    std::cout << "no checkpoint files under " << directory << "\n";
    return 0;
  }

  // Aggregate per fingerprint across shard files.
  struct SweepStat {
    std::size_t files = 0;
    std::size_t records = 0;
    std::uint64_t bytes = 0;
  };
  std::map<std::uint64_t, SweepStat> sweeps;
  std::vector<const support::CheckpointFileInfo*> unreadable;
  for (const auto& file : files) {
    if (!file.readable) {
      unreadable.push_back(&file);
      continue;
    }
    SweepStat& stat = sweeps[file.fingerprint];
    ++stat.files;
    stat.records += file.records;
    stat.bytes += file.bytes;
  }

  support::TextTable table(
      {"fingerprint", "referenced by", "files", "records", "bytes"});
  for (const auto& [fingerprint, stat] : sweeps) {
    std::string owner = "(unreferenced)";
    if (const auto it = owners.find(fingerprint); it != owners.end()) {
      owner.clear();
      for (const std::string& name : it->second) {
        if (!owner.empty()) owner += ", ";
        owner += name;
      }
    }
    table.add_row({hex64(fingerprint), owner, std::to_string(stat.files),
                   std::to_string(stat.records), std::to_string(stat.bytes)});
  }
  table.print(std::cout);
  for (const auto* file : unreadable) {
    std::cout << "unreadable (foreign/corrupt header): " << file->path << " ("
              << file->bytes << " bytes)\n";
  }

  if (prune) {
    // A dry run makes the same selection with zero filesystem writes: lets an
    // operator audit what a shared checkpoint directory would lose before
    // committing (a forgotten --keep-study shows up here, not as data loss).
    std::uint64_t freed = 0;
    std::size_t removed = 0;
    for (const auto& file : files) {
      if (!file.readable) continue;  // never guess about foreign files
      if (owners.count(file.fingerprint) != 0) continue;
      if (dry_run) {
        std::cout << "would prune " << hex64(file.fingerprint) << " "
                  << file.path << " (" << file.bytes << " bytes)\n";
      } else if (std::error_code ec;
                 !std::filesystem::remove(file.path, ec) || ec) {
        std::fprintf(stderr, "warning: could not remove %s\n",
                     file.path.c_str());
        continue;
      }
      ++removed;
      freed += file.bytes;
    }
    if (dry_run) {
      std::cout << "dry run: would prune " << removed << " file(s), freeing "
                << freed << " bytes; re-run without --dry-run to delete\n";
    } else {
      std::cout << "pruned " << removed << " file(s), freed " << freed
                << " bytes (kept every fingerprint a registered preset"
                << (keep_studies.empty() ? "" : " or --keep-study expansion")
                << " references)\n";
    }
  } else {
    std::size_t unreferenced = 0;
    for (const auto& [fingerprint, stat] : sweeps) {
      if (owners.count(fingerprint) == 0) ++unreferenced;
    }
    if (unreferenced > 0) {
      std::cout << unreferenced
                << " sweep(s) not referenced by any registered preset; "
                   "re-run with --prune to remove them\n";
    }
  }
  return 0;
}

// ------------------------------------------------------------------ serve --

/// The running server, published for the signal handlers. request_stop only
/// stores an atomic flag, so calling it from SIGINT/SIGTERM is safe.
std::atomic<serve::HttpServer*> g_serve_server{nullptr};

extern "C" void serve_signal_handler(int /*signum*/) {
  if (serve::HttpServer* server = g_serve_server.load()) {
    server->request_stop();
  }
}

int cmd_serve(int argc, char** argv, int start) {
  serve::ServiceConfig service_config;
  service_config.checkpoint_dir = "ethsm-checkpoints";
  serve::ServerConfig server_config;
  std::string port_file;
  std::string trace_file;
  bool quiet = false;

  const auto next = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) usage_fail(std::string(flag) + " needs a value");
    return argv[++i];
  };
  const auto next_count = [&](int& i, const char* flag, std::uint64_t min) {
    return static_cast<std::size_t>(parse_count(flag, next(i, flag), min));
  };

  for (int i = start; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--port") {
      server_config.port = static_cast<std::uint16_t>(
          parse_count("--port", next(i, "--port"), 0, 65535));
    } else if (arg == "--host") {
      server_config.host = next(i, "--host");
    } else if (arg == "--checkpoint-dir") {
      service_config.checkpoint_dir = next(i, "--checkpoint-dir");
    } else if (arg == "--workers") {
      server_config.workers = next_count(i, "--workers", 1);
    } else if (arg == "--cache-entries") {
      service_config.cache_entries = next_count(i, "--cache-entries", 0);
    } else if (arg == "--max-inflight") {
      service_config.admission.max_jobs_in_flight =
          next_count(i, "--max-inflight", 1);
    } else if (arg == "--client-jobs") {
      service_config.admission.per_client_jobs =
          next_count(i, "--client-jobs", 1);
    } else if (arg == "--port-file") {
      port_file = next(i, "--port-file");
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--trace") {
      trace_file = next(i, "--trace");
    } else {
      usage_fail("unknown serve argument '" + std::string(arg) + "'");
    }
  }

  serve::ExperimentService service(service_config);
  serve::HttpServer server(service, server_config);

  // Writing the bound port *after* listen succeeds lets scripts start with
  // --port 0 and poll the file instead of racing the ephemeral-port choice.
  if (!port_file.empty()) {
    std::ofstream out(port_file, std::ios::trunc);
    out << server.port() << "\n";
    if (!out) {
      std::fprintf(stderr, "error: cannot write port file %s\n",
                   port_file.c_str());
      return 1;
    }
  }
  if (!quiet) {
    std::cout << "ethsm serve: listening on " << server_config.host << ":"
              << server.port() << " (checkpoint dir: "
              << service_config.checkpoint_dir << ", cache: "
              << service_config.cache_entries << " entries, workers: "
              << server_config.workers << ")\n"
              << std::flush;
  }

  g_serve_server.store(&server);
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  {
    // Spans from every worker thread land in the trace; the guard flushes
    // the file on clean shutdown (SIGINT/SIGTERM stop serve() normally).
    const TraceGuard trace(trace_file);
    server.serve();
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_serve_server.store(nullptr);

  if (!quiet) std::cout << "ethsm serve: stopped\n";
  return 0;
}

// ------------------------------------------------------------ orchestrate --

/// `ethsm orchestrate`: distribute a preset/spec/study across worker
/// processes (local or ssh), sync every worker's checkpoint records back
/// into one shared store, then run the ordinary in-process merge pass so the
/// final artefact is bitwise-identical to a single-process run. See
/// src/orchestrate/orchestrate.h for the coordinator contract and
/// docs/OPERATIONS.md for deployment recipes.
int cmd_orchestrate(int argc, char** argv, int first) {
  RunArgs args;
  args.retry = 2;
  std::string checkpoint_dir = "ethsm-checkpoints";
  std::size_t workers = 2;
  bool workers_set = false;
  std::vector<std::string> hosts;
  std::size_t units = 0;
  std::size_t worker_threads = 0;
  std::string remote_binary = "ethsm";
  std::string remote_root = "/tmp/ethsm-orchestrate";
  std::string trace_file;
  bool quiet = false;

  parse_source_args(
      args, kOrchestrateUsage, argc, argv, first,
      [&](std::string_view arg, const FlagValue& next) {
        auto next_count = [&](const char* what) {
          return static_cast<std::size_t>(parse_count(what, next(what), 1));
        };
        if (arg == "--checkpoint-dir") {
          checkpoint_dir = next("--checkpoint-dir");
        } else if (arg == "--workers") {
          workers = next_count("--workers");
          workers_set = true;
        } else if (arg == "--hosts") {
          // Comma-separated host list, one worker slot per host.
          const std::string list = next("--hosts");
          std::size_t start = 0;
          while (start <= list.size()) {
            const std::size_t comma = list.find(',', start);
            const std::string host = list.substr(
                start,
                comma == std::string::npos ? std::string::npos : comma - start);
            if (!host.empty()) hosts.push_back(host);
            if (comma == std::string::npos) break;
            start = comma + 1;
          }
          if (hosts.empty()) usage_fail("--hosts wants a comma-separated list");
        } else if (arg == "--units") {
          units = next_count("--units");
        } else if (arg == "--worker-threads") {
          worker_threads = next_count("--worker-threads");
        } else if (arg == "--remote-binary") {
          remote_binary = next("--remote-binary");
        } else if (arg == "--remote-root") {
          remote_root = next("--remote-root");
        } else if (arg == "--trace") {
          trace_file = next("--trace");
        } else if (arg == "--quiet") {
          quiet = true;
        } else {
          return false;
        }
        return true;
      });
  const SpecRequest& request = args.request;
  if (workers_set && !hosts.empty()) {
    usage_fail("pick --workers N (local) or --hosts a,b,c (ssh), not both");
  }

  const std::string work_dir = checkpoint_dir + "/orchestrate";
  orchestrate::LocalTransport local([&] {
    orchestrate::LocalTransportConfig config;
    config.workers = workers;
    config.work_root = work_dir + "/units";
    config.binary = orchestrate::self_executable_path("ethsm");
    // Local workers split the machine instead of each grabbing every core.
    config.threads_per_worker =
        worker_threads > 0
            ? worker_threads
            : std::max<std::size_t>(
                  1, std::thread::hardware_concurrency() / workers);
    return config;
  }());
  orchestrate::SshTransport ssh([&] {
    orchestrate::SshTransportConfig config;
    config.hosts = hosts;
    config.remote_binary = remote_binary;
    config.remote_root = remote_root;
    config.threads_per_worker = worker_threads;
    return config;
  }());
  orchestrate::WorkerTransport& transport =
      hosts.empty() ? static_cast<orchestrate::WorkerTransport&>(local)
                    : static_cast<orchestrate::WorkerTransport&>(ssh);

  orchestrate::OrchestrateConfig config;
  config.transport = &transport;
  // Three job stripes per slot: a unit is a third of a slot's share, short
  // enough that the last units to finish leave little idle tail, and a dead
  // worker's queue re-balances across the survivors.
  config.units = units > 0 ? units : 3 * transport.slots();
  config.coordinator_dir = checkpoint_dir;
  config.work_dir = work_dir;
  config.retry.attempts = args.retry + 1;
  config.retry.initial_backoff_ms = 250.0;
  config.kill = orchestrate::kill_plan_from_env();
  if (!quiet) {
    // --quiet empties the sink, which silences the scheduling lines AND the
    // periodic progress heartbeat.
    config.status = [](const std::string& line) {
      std::cout << "[orchestrate] " << line << "\n" << std::flush;
    };
  }

  config.base_args.push_back("run");
  if (!request.preset.empty()) config.base_args.push_back(request.preset);
  if (!request.spec_file.empty()) {
    config.base_args.push_back("--spec");
    config.base_args.push_back(request.spec_file);
  }
  if (!request.study_file.empty()) {
    config.base_args.push_back("--study");
    config.base_args.push_back(request.study_file);
  }
  if (request.all) config.base_args.push_back("--all");
  if (request.quick) config.base_args.push_back("--quick");
  for (const std::string& assignment : request.overrides) {
    config.base_args.push_back("--set");
    config.base_args.push_back(assignment);
  }

  if (!quiet) {
    std::cout << "== orchestrate: " << config.units << " shard unit(s) over "
              << transport.slots() << " "
              << (hosts.empty() ? "local worker(s)" : "ssh host(s)")
              << " (checkpoint dir: " << checkpoint_dir << ") ==\n";
  }

  const TraceGuard trace(trace_file);
  const orchestrate::OrchestrateOutcome outcome = orchestrate::run_orchestrate(
      config);  // import stores die here; the merge pass below may write
  orchestrate::write_orchestrate_manifest(
      outcome, checkpoint_dir + "/orchestrate-manifest.json");

  // Ordinary single-process merge pass over the shared store: loads every
  // imported record, computes any stragglers, renders the artefact exactly
  // as a fresh run would. When units failed permanently the merge is held
  // to loaded records only (max_new_jobs = 0), so partial progress persists
  // without the coordinator silently recomputing a dead shard's work.
  RunArgs merge;
  merge.request = request;
  merge.format = args.format;
  merge.format_set = args.format_set;
  merge.out_file = args.out_file;
  merge.checkpoint.directory = checkpoint_dir;
  if (!outcome.ok()) merge.checkpoint.max_new_jobs = 0;
  const int merge_rc = cmd_run(merge);

  if (!outcome.ok()) {
    support::TextTable failures({"unit", "shard", "worker", "attempts",
                                 "error"});
    for (const orchestrate::UnitOutcome& unit : outcome.units) {
      if (unit.ok) continue;
      failures.add_row({std::to_string(unit.unit), unit.shard, unit.worker,
                        std::to_string(unit.attempts), unit.error});
    }
    std::cout << "\nFailed units (status=failed in orchestrate-manifest.json; "
                 "their checkpoint records are retained -- re-run to retry "
                 "just the missing shards):\n";
    failures.print(std::cout);
    return 1;
  }
  return merge_rc;
}

int dispatch(int argc, char** argv) {
  if (argc < 2) usage_fail("missing subcommand");
  const std::string_view command = argv[1];
  if (command == "list") return cmd_list(argc, argv, 2);
  if (command == "run") return cmd_run(parse_run_args(argc, argv, 2));
  if (command == "print") return cmd_print(argc, argv, 2);
  if (command == "expand") return cmd_expand(argc, argv, 2);
  if (command == "checkpoint-stats") {
    return cmd_checkpoint_stats(argc, argv, 2);
  }
  if (command == "serve") return cmd_serve(argc, argv, 2);
  if (command == "orchestrate") return cmd_orchestrate(argc, argv, 2);
  if (command == "--help" || command == "-h" || command == "help") {
    std::cout << kUsage;
    return 0;
  }
  usage_fail("unknown subcommand '" + std::string(command) + "'");
}

}  // namespace

int cli_main(int argc, char** argv) {
  try {
    return dispatch(argc, argv);
  } catch (const SpecError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace ethsm::api
