#include "api/study.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "api/presets.h"
#include "api/render.h"
#include "support/json.h"
#include "support/metrics.h"
#include "support/retry.h"
#include "support/trace.h"

namespace ethsm::api {

namespace fs = std::filesystem;

namespace {

using support::json_escape;

[[noreturn]] void fail(const std::string& message) { throw SpecError(message); }

/// Study/variant names double as directory components, so they are kept to a
/// filesystem-portable alphabet up front instead of being sanitized later.
bool valid_name(std::string_view name) {
  if (name.empty() || name.size() > 128) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' && c != '_' &&
        c != '-') {
      return false;
    }
  }
  return name != "." && name != "..";
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// Matrix axis values use '|' as the separator because ',' already separates
/// grid elements inside a single value (alphas = 0.1,0.2 is ONE cell).
std::vector<std::string> split_axis_values(std::string_view key,
                                           std::string_view text) {
  std::vector<std::string> values;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find('|', start);
    const std::string_view part =
        trim(text.substr(start, pos == std::string_view::npos ? std::string_view::npos
                                                              : pos - start));
    if (part.empty()) {
      fail("study key '" + std::string(key) +
           "': empty matrix value (want v1|v2|...)");
    }
    values.push_back(std::string(part));
    if (pos == std::string_view::npos) break;
    start = pos + 1;
  }
  return values;
}

/// Directory form of an entry name: portable characters pass through, ", "
/// separators collapse to ",", everything else (':' in reward specs, '|')
/// becomes '-'.
std::string dir_of(std::string_view name) {
  std::string dir;
  dir.reserve(name.size());
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '.' || c == '_' ||
        c == '=' || c == '+' || c == '-' || c == ',') {
      dir += c;
    } else if (c == ' ') {
      continue;
    } else {
      dir += '-';
    }
  }
  return dir;
}

void write_file(const fs::path& path, const std::string& payload) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write " + path.string() + ": " +
                             std::strerror(errno));
  }
  out << payload;
  out.flush();
  if (!out) {
    throw std::runtime_error("short write to " + path.string());
  }
}

using support::hex64;

/// Entry directories a previous run recorded in out_root's manifest. Used to
/// clean up cells that an edited study no longer expands to -- manifest-
/// guided so only directories a study run created are ever touched (`--all`
/// writes straight into a user-chosen --out). The scan is textual but exact:
/// entry dirs are restricted to a portable alphabet with no '"' or escapes.
std::vector<std::string> manifest_dirs(const fs::path& manifest_path) {
  std::ifstream in(manifest_path);
  if (!in) return {};
  std::ostringstream os;
  os << in.rdbuf();
  const std::string text = os.str();
  std::vector<std::string> dirs;
  const std::string needle = "\"dir\": \"";
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos)) {
    pos += needle.size();
    const std::size_t end = text.find('"', pos);
    if (end == std::string::npos) break;
    dirs.push_back(text.substr(pos, end - pos));
    pos = end;
  }
  return dirs;
}

}  // namespace

StudySpec parse_study(std::string_view text) {
  StudySpec study;
  std::set<std::string, std::less<>> closed_variants;  // contiguity check
  std::string open_variant;

  for (const auto& [key, value] : parse_spec_entries(text)) {
    // A base/matrix/quick key between two runs of the same variant block does
    // not close it; only the start of a *different* variant block does.
    const bool is_variant_key = key.rfind("variant.", 0) == 0;

    if (key == "study") {
      if (!study.name.empty()) fail("duplicate 'study = ...' line");
      study.name = std::string(trim(value));
      if (!valid_name(study.name)) {
        fail("study name '" + study.name +
             "' must be non-empty [A-Za-z0-9._-] (it names the results "
             "directory)");
      }
    } else if (key == "title") {
      study.title = std::string(trim(value));
    } else if (key.rfind("matrix.", 0) == 0) {
      const std::string axis_key = key.substr(std::strlen("matrix."));
      if (axis_key.empty()) fail("study key 'matrix.' needs a spec key");
      for (const StudyAxis& axis : study.matrix) {
        if (axis.key == axis_key) {
          fail("duplicate matrix axis 'matrix." + axis_key + "'");
        }
      }
      study.matrix.push_back({axis_key, split_axis_values(key, value)});
    } else if (is_variant_key) {
      const std::string rest = key.substr(std::strlen("variant."));
      const std::size_t dot = rest.find('.');
      if (dot == std::string::npos || dot == 0 || dot + 1 >= rest.size()) {
        fail("study key '" + key +
             "': variant keys are variant.<name>.<spec key>");
      }
      const std::string name = rest.substr(0, dot);
      if (!valid_name(name)) {
        fail("variant name '" + name +
             "' must be non-empty [A-Za-z0-9._-] (it names a results "
             "directory)");
      }
      if (name != open_variant) {
        if (closed_variants.count(name) != 0) {
          fail("duplicate variant '" + name +
               "' (variant blocks must be contiguous; merge the keys into "
               "one block)");
        }
        if (!open_variant.empty()) closed_variants.insert(open_variant);
        open_variant = name;
        study.variants.push_back({name, {}});
      }
      study.variants.back().overrides.emplace_back(rest.substr(dot + 1),
                                                   std::string(trim(value)));
    } else if (key.rfind("quick.", 0) == 0) {
      const std::string quick_key = key.substr(std::strlen("quick."));
      if (quick_key.empty()) fail("study key 'quick.' needs a spec key");
      study.quick_overrides.emplace_back(quick_key, std::string(trim(value)));
    } else {
      study.base.emplace_back(key, std::string(trim(value)));
    }
  }

  if (study.name.empty()) {
    fail("a study file needs a 'study = <name>' line "
         "(plain spec files run with `ethsm run --spec`)");
  }
  return study;
}

std::vector<StudyEntry> expand_study(const StudySpec& study, bool quick,
                                     const std::vector<std::string>& overrides) {
  std::vector<StudyVariant> variants = study.variants;
  if (variants.empty()) variants.push_back({"base", {}});

  std::size_t cells = variants.size();
  for (const StudyAxis& axis : study.matrix) {
    cells *= axis.values.size();
    if (cells > 10'000) {
      fail("study '" + study.name +
           "' expands to more than 10000 specs; shrink the matrix");
    }
  }

  std::vector<StudyEntry> entries;
  entries.reserve(cells);
  std::set<std::string> dirs;
  // Row-major odometer over the matrix axes, last axis fastest -- the
  // documented deterministic order.
  std::vector<std::size_t> index(study.matrix.size(), 0);
  for (const StudyVariant& variant : variants) {
    std::fill(index.begin(), index.end(), 0);
    while (true) {
      SpecEntries cell = study.base;
      cell.insert(cell.end(), variant.overrides.begin(),
                  variant.overrides.end());
      std::string name = variant.name;
      for (std::size_t a = 0; a < study.matrix.size(); ++a) {
        const StudyAxis& axis = study.matrix[a];
        cell.emplace_back(axis.key, axis.values[index[a]]);
        name += ", " + axis.key + "=" + axis.values[index[a]];
      }
      if (quick) {
        cell.insert(cell.end(), study.quick_overrides.begin(),
                    study.quick_overrides.end());
      }
      for (const std::string& assignment : overrides) {
        apply_override(cell, assignment);
      }

      StudyEntry entry;
      try {
        entry.spec = spec_from_entries(cell);
      } catch (const SpecError& e) {
        fail("study '" + study.name + "', spec '" + name + "': " + e.what());
      }
      if (entry.spec.title.empty()) {
        const std::string& base_title =
            study.title.empty() ? study.name : study.title;
        entry.spec.title =
            cells == 1 ? base_title : base_title + " [" + name + "]";
      }
      entry.name = std::move(name);
      entry.dir = dir_of(entry.name);
      if (!dirs.insert(entry.dir).second) {
        fail("study '" + study.name + "': entries '" + entry.name +
             "' and another cell collide on results directory '" + entry.dir +
             "'");
      }
      entries.push_back(std::move(entry));

      // Advance the odometer; done when it wraps (or there are no axes).
      bool wrapped = true;
      for (std::size_t a = study.matrix.size(); a-- > 0;) {
        if (++index[a] < study.matrix[a].values.size()) {
          wrapped = false;
          break;
        }
        index[a] = 0;
      }
      if (wrapped) break;
    }
  }
  return entries;
}

std::vector<StudyEntry> paper_study_entries(bool quick) {
  std::vector<StudyEntry> entries;
  for (const Preset& preset : presets()) {
    StudyEntry entry;
    entry.name = preset.name;
    entry.dir = preset.name;
    entry.spec = preset.spec(quick);
    entries.push_back(std::move(entry));
  }
  return entries;
}

StudyResult run_study(std::string name, std::string title,
                      const std::vector<StudyEntry>& entries,
                      const RunOptions& options, const StudyProgress& progress,
                      const StudyFailurePolicy& failure) {
  StudyResult study;
  study.name = std::move(name);
  study.title = std::move(title);
  study.checkpoint_enabled = options.checkpoint.enabled();
  study.entries.reserve(entries.size());

  // One budget for the whole study: every spec sees what the previous ones
  // left over, so --max-new-jobs interrupts the study as a unit and a resume
  // picks up at the first unfinished sweep.
  support::SweepCheckpoint remaining = options.checkpoint;
  for (const StudyEntry& entry : entries) {
    StudyEntryResult entry_result;
    entry_result.name = entry.name;
    entry_result.dir = entry.dir;
    RunOptions entry_options;
    entry_options.checkpoint = remaining;
    support::RetryPolicy policy;
    policy.attempts = std::max(failure.retries, 0) + 1;
    policy.initial_backoff_ms = failure.initial_backoff_ms;
    policy.sleeper = failure.sleeper;
    // Observability only (fills StudyEntryTiming / a study-cell span);
    // entries run sequentially, so global-registry deltas around the cell
    // are exactly this cell's solver work. Write-only: nothing below reads
    // these values back into the run.
    support::trace::Span cell_span("study.cell " + entry.name);
    auto& reg = support::metrics::registry();
    support::metrics::Counter& solver_solves =
        reg.counter("ethsm_solver_solves_total");
    support::metrics::Counter& solver_iters =
        reg.counter("ethsm_solver_iterations_total");
    support::metrics::Counter& solver_fallbacks =
        reg.counter("ethsm_solver_fallbacks_total");
    const std::uint64_t solves_before = solver_solves.value();
    const std::uint64_t iters_before = solver_iters.value();
    const std::uint64_t fallbacks_before = solver_fallbacks.value();
    const auto cell_start = std::chrono::steady_clock::now();
    try {
      ExperimentResult result = support::retry(policy, [&] {
        ++entry_result.attempts;
        return run(entry.spec, entry_options);
      });
      if (remaining.max_new_jobs != static_cast<std::size_t>(-1)) {
        remaining.max_new_jobs -=
            std::min(result.outcome.computed, remaining.max_new_jobs);
      }
      study.outcome.merge(result.outcome);
      entry_result.timing.jobs_computed = result.outcome.computed;
      entry_result.timing.jobs_loaded = result.outcome.loaded;
      entry_result.result = std::move(result);
    } catch (const std::exception& e) {
      // Fail-soft: one bad cell must not discard its siblings' work. The
      // failure (and its error text) lands in the manifest; the CLI turns
      // any_failed() into a nonzero exit after the study finishes.
      entry_result.failed = true;
      entry_result.error = e.what();
      entry_result.result.spec = entry.spec;
      try {
        entry_result.result.spec_fingerprint = spec_fingerprint(entry.spec);
        entry_result.result.sweep_fingerprints = sweep_fingerprints(entry.spec);
      } catch (const std::exception&) {
        // A spec broken enough to fail fingerprinting still gets its
        // failure recorded -- just without provenance hashes.
      }
    }
    entry_result.timing.wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - cell_start)
            .count();
    entry_result.timing.solver_solves = solver_solves.value() - solves_before;
    entry_result.timing.solver_iterations = solver_iters.value() - iters_before;
    entry_result.timing.solver_fallbacks =
        solver_fallbacks.value() - fallbacks_before;
    study.entries.push_back(std::move(entry_result));
    if (progress) {
      progress(study.entries.size(), entries.size(), study.entries.back());
    }
  }
  return study;
}

void write_study_results(const StudyResult& study,
                         const std::string& out_root) {
  std::error_code ec;
  fs::create_directories(out_root, ec);
  if (ec) {
    throw std::runtime_error("cannot create results directory " + out_root +
                             ": " + ec.message());
  }

  // An edited study (renamed/removed variant, shrunk matrix) must not leave
  // the old cells' directories behind to contradict the new manifest.
  std::set<std::string> current_dirs;
  for (const StudyEntryResult& entry : study.entries) {
    current_dirs.insert(entry.dir);
  }
  for (const std::string& old :
       manifest_dirs(fs::path(out_root) / "manifest.json")) {
    if (current_dirs.count(old) != 0) continue;
    if (old.empty() || old == "." || old == ".." ||
        old.find('/') != std::string::npos ||
        old.find('\\') != std::string::npos) {
      continue;  // never follow a path out of out_root
    }
    fs::remove_all(fs::path(out_root) / old, ec);
  }

  std::ostringstream manifest;
  manifest << "{\n";
  manifest << "  \"study\": \"" << json_escape(study.name) << "\",\n";
  manifest << "  \"title\": \"" << json_escape(study.title) << "\",\n";
  manifest << "  \"complete\": " << (study.complete() ? "true" : "false")
           << ",\n";
  manifest << "  \"entries\": [";

  for (std::size_t i = 0; i < study.entries.size(); ++i) {
    const StudyEntryResult& entry = study.entries[i];
    const bool skipped = entry.result.skipped;
    std::vector<std::string> files;
    if (entry.failed) {
      // A failed cell writes no artefacts; an earlier successful run may have
      // left a directory here, and it must not survive to contradict the
      // manifest's status=failed record.
      fs::remove_all(fs::path(out_root) / entry.dir, ec);
    } else if (!skipped) {
      const fs::path dir = fs::path(out_root) / entry.dir;
      fs::create_directories(dir, ec);
      if (ec) {
        throw std::runtime_error("cannot create results directory " +
                                 dir.string() + ": " + ec.message());
      }

      // Artefact files fold the loaded-vs-computed split away (see
      // provenance_normalized): a resumed study and a fresh one must write
      // bitwise-identical trees. Progress provenance stays on stdout.
      const ExperimentResult view = provenance_normalized(entry.result);
      {
        std::ostringstream os;
        render_text(view, os);
        write_file(dir / "table.txt", os.str());
        files.push_back("table.txt");
      }
      const std::string csv =
          view.complete() ? render_csv(view) : std::string();
      if (!csv.empty()) {
        write_file(dir / "data.csv", csv);
        files.push_back("data.csv");
      } else {
        // An earlier complete run may have left a data.csv in this directory;
        // a file the manifest no longer lists must not survive to contradict
        // the sibling data.json.
        fs::remove(dir / "data.csv", ec);
      }
      write_file(dir / "data.json", render_json(view));
      files.push_back("data.json");
    }
    // A skipped cell (left to the merge pass by a sharded run) gets a
    // manifest record but no files and no directory; whatever a previous
    // merge pass wrote there is left untouched.

    manifest << (i ? ",\n" : "\n");
    manifest << "    {\"name\": \"" << json_escape(entry.name)
             << "\", \"dir\": \"" << json_escape(entry.dir)
             << "\", \"kind\": \"" << to_string(entry.result.spec.kind)
             << "\",\n     \"title\": \"" << json_escape(entry.result.spec.title)
             << "\",\n     \"spec_fingerprint\": \""
             << hex64(entry.result.spec_fingerprint)
             << "\", \"complete\": "
             << (entry.result.complete() && !entry.failed ? "true" : "false");
    manifest << ", \"status\": \""
             << (entry.failed ? "failed" : skipped ? "skipped" : "ok") << '"';
    if (entry.failed) {
      manifest << ",\n     \"error\": \"" << json_escape(entry.error)
               << "\", \"attempts\": " << entry.attempts;
    } else if (!skipped) {
      // Deterministic job count of the cell's sweeps (same value fresh or
      // resumed): what `ethsm orchestrate` and shard planners size units by.
      manifest << ", \"jobs\": " << entry.result.outcome.jobs_total;
    }
    // Run-mode-dependent accounting lives in ONE flat object so bitwise
    // tree comparisons can mask it (`,\s*"timing": \{[^}]*\}` -- see
    // StudyEntryTiming in study.h and tools/compare_trees.py). Keys must
    // stay flat: no nested braces, no strings containing '}' or '"dir"'.
    char wall[32];
    std::snprintf(wall, sizeof(wall), "%.3f", entry.timing.wall_ms);
    manifest << ",\n     \"timing\": {\"wall_ms\": " << wall
             << ", \"jobs_computed\": " << entry.timing.jobs_computed
             << ", \"jobs_loaded\": " << entry.timing.jobs_loaded
             << ", \"solver_solves\": " << entry.timing.solver_solves
             << ", \"solver_iterations\": " << entry.timing.solver_iterations
             << ", \"solver_fallbacks\": " << entry.timing.solver_fallbacks
             << "}";
    manifest << ",\n     \"sweep_fingerprints\": [";
    for (std::size_t f = 0; f < entry.result.sweep_fingerprints.size(); ++f) {
      manifest << (f ? ", " : "") << '"'
               << hex64(entry.result.sweep_fingerprints[f]) << '"';
    }
    manifest << "], \"files\": [";
    for (std::size_t f = 0; f < files.size(); ++f) {
      manifest << (f ? ", " : "") << '"' << json_escape(files[f]) << '"';
    }
    manifest << "]}";
  }
  manifest << "\n  ]\n}\n";
  write_file(fs::path(out_root) / "manifest.json", manifest.str());
}

}  // namespace ethsm::api
