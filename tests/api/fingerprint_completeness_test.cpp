// Fingerprint completeness as a property: a checkpoint key must digest every
// spec input its sweep's results depend on, or records written for one spec
// would silently satisfy a changed one (docs/ARCHITECTURE.md, fingerprint
// rule).
//
// For every checkpointed experiment kind and every spec key, spec A runs into
// a fresh store, then spec B -- A with that one key changed -- runs on the
// same store. B's rendered result must equal that of B run on a fresh store:
// a key missing from a fingerprint shows up as B loading A's stale records.
// The key list is print_spec of the all-keys spec (all_keys_spec.h), so a
// key set there fails here until it has a perturbation below.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "api/all_keys_spec.h"
#include "api/render.h"
#include "api/runner.h"
#include "api/spec.h"
#include "support/temp_dir.h"

namespace ethsm::api {
namespace {

/// One changed value per key, chosen to differ from every base spec below and
/// to keep every kind's spec valid and tiny.
const std::map<std::string, std::string>& perturbations() {
  static const std::map<std::string, std::string> kPerturbations = {
      {"title", "Perturbed title"},
      {"gamma", "0.35"},
      {"scenario", "2"},
      {"alpha", "0.25"},
      {"alphas", "0.15,0.3"},
      {"gammas", "0.2,0.7"},
      {"ku_values", "0.5"},
      {"delays", "0.2"},
      {"rewards", "flat:0.25"},
      {"max_lead", "11"},
      {"tolerance", "0.002"},
      {"alpha_min", "0.02"},
      {"alpha_max", "0.45"},
      {"threshold_max_lead", "9"},
      {"sim_runs", "3"},
      {"sim_blocks", "250"},
      {"sim_seed", "0x1234"},
      {"shares", "0.6,0.4"},
      {"net.topology", "ring"},
      {"net.nodes", "5"},
      {"net.latency", "fixed:5"},
      {"net.relay", "announce"},
      {"net.faults.drop", "0.1"},
      {"net.faults.churn", "400:100"},
      {"net.faults.partition", "50:150"},
      {"net.faults.eclipse", "1:20"},
      {"epoch_blocks", "200"},
      {"epochs", "3"},
      {"phase1_blocks", "500"},
      {"series.0.label", "relabelled"},
      {"series.0.rewards", "bitcoin"},
      {"series.0.strategy", "fork"},
      {"series.1.label", "other"},
      {"series.1.rewards", "flat:0.75"},
      {"series.1.strategy", "trail:1"},
  };
  return kPerturbations;
}

/// Every key print_spec emits for the all-keys spec, `kind` excepted (each
/// test below fixes the kind it covers).
std::vector<std::string> spec_keys() {
  std::vector<std::string> keys;
  for (const auto& [key, value] :
       parse_spec_entries(print_spec(testutil::all_keys_spec()))) {
    if (key != "kind") keys.push_back(key);
  }
  return keys;
}

RunOptions in_store(const std::string& directory) {
  RunOptions options;
  options.checkpoint.directory = directory;
  return options;
}

std::string rendered(const ExperimentSpec& spec, const std::string& store) {
  return render_json(provenance_normalized(run(spec, in_store(store))));
}

void expect_fingerprints_complete(const char* base_text) {
  const ExperimentSpec a = parse_spec(base_text);
  for (const std::string& key : spec_keys()) {
    SCOPED_TRACE("key " + key);
    const auto it = perturbations().find(key);
    if (it == perturbations().end()) {
      ADD_FAILURE() << "no perturbation for spec key '" << key << "'";
      continue;
    }
    SpecEntries entries = parse_spec_entries(print_spec(a));
    apply_override(entries, key + "=" + it->second);
    const ExperimentSpec b = spec_from_entries(entries);
    ASSERT_NE(print_spec(b), print_spec(a)) << "perturbation is a no-op";

    const std::string shared = testutil::temp_dir("shared");
    (void)run(a, in_store(shared));
    EXPECT_EQ(rendered(b, shared), rendered(b, testutil::temp_dir("fresh")));
  }
}

TEST(CheckpointFingerprintCompleteness, Revenue) {
  expect_fingerprints_complete(
      "kind = revenue\n"
      "alphas = 0.1,0.3\n"
      "max_lead = 10\n"
      "sim_runs = 2\n"
      "sim_blocks = 200\n"
      "series.0.label = a\n"
      "series.1.label = b\n"
      "series.1.rewards = flat:0.5\n");
}

TEST(CheckpointFingerprintCompleteness, Threshold) {
  expect_fingerprints_complete(
      "kind = threshold\n"
      "gammas = 0.2,0.6\n"
      "tolerance = 0.001\n"
      "threshold_max_lead = 8\n");
}

TEST(CheckpointFingerprintCompleteness, UncleDistance) {
  expect_fingerprints_complete(
      "kind = uncle_distance\n"
      "alphas = 0.3\n"
      "max_lead = 10\n"
      "sim_runs = 2\n"
      "sim_blocks = 300\n");
}

TEST(CheckpointFingerprintCompleteness, StubbornSim) {
  expect_fingerprints_complete(
      "kind = stubborn_sim\n"
      "alphas = 0.3\n"
      "sim_runs = 1\n"
      "sim_blocks = 300\n"
      "series.0.label = a\n"
      "series.1.label = b\n"
      "series.1.strategy = lead\n");
}

TEST(CheckpointFingerprintCompleteness, Delay) {
  expect_fingerprints_complete(
      "kind = delay\n"
      "delays = 0.1\n"
      "shares = 0.5,0.3,0.2\n"
      "sim_runs = 1\n"
      "sim_blocks = 300\n");
}

TEST(CheckpointFingerprintCompleteness, Net) {
  expect_fingerprints_complete(
      "kind = net\n"
      "alphas = 0.3\n"
      "net.nodes = 4\n"
      "sim_runs = 1\n"
      "sim_blocks = 200\n");
}

}  // namespace
}  // namespace ethsm::api
