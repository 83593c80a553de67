// Golden pins of the checkpoint keys every registered preset writes.
//
// sweep_fingerprints(spec) names the checkpoint-store sweeps api::run
// consults, in run order; study manifests list them and
// `ethsm checkpoint-stats --prune` keeps them. A changed key value orphans
// every record users have on disk, and a changed order rewrites every
// manifest, so both are frozen here. If a key must change on purpose, bump
// the owning driver's fingerprint tag ("run_net_many/v2", ...) and repin.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/presets.h"
#include "api/runner.h"
#include "api/study.h"
#include "support/json.h"

namespace ethsm::api {
namespace {

std::vector<std::string> hex_keys(const ExperimentSpec& spec) {
  std::vector<std::string> keys;
  for (std::uint64_t fp : sweep_fingerprints(spec)) {
    keys.push_back(support::hex64(fp));
  }
  return keys;
}

struct PresetKeys {
  std::string preset;
  bool quick = false;
  std::vector<std::string> keys;
};

const std::vector<PresetKeys>& golden_preset_keys() {
  static const std::vector<PresetKeys> kGolden = {
      {"fig8", false, {"3494ac65b43606bf", "ca9bcfcfbfc7190a"}},
      {"fig8", true, {"3494ac65b43606bf", "8f2a4dc6457dc1f6"}},
      {"fig9", false,
       {"f6768049ca1bd0d1", "e7089052fe24bf0a", "ef40e8d50d50f8c8",
        "87153a36bc445fcf", "153ff8832e816035"}},
      {"fig9", true,
       {"f6768049ca1bd0d1", "e7089052fe24bf0a", "ef40e8d50d50f8c8",
        "87153a36bc445fcf", "153ff8832e816035"}},
      {"fig10", false, {"0bc5578d4872827d"}},
      {"fig10", true, {"5d96c2aa5611d836"}},
      {"table1", false, {}},
      {"table1", true, {}},
      {"table2", false, {"5d20032945948bd6", "3f525a5dd1f97bad"}},
      {"table2", true, {"9cd0a886f7271bbe", "8bb253b82acf661b"}},
      {"sec6_reward_design", false, {}},
      {"sec6_reward_design", true, {}},
      {"ext_stubborn", false,
       {"3887544bd0dadab1", "a086eaceb9f172e0", "47f66024dcd46455",
        "ae4112218056906e", "ea38c9dd8773e9c0", "2e4c97e983c65736",
        "68bc588a7767f198", "ade27e4e5469e396", "96eabafc7831dff8",
        "7e24f638d4d01ebb", "9f8a0fa99637d395", "5581f97863b88034",
        "3dc39c8940ebb3eb", "2e59fa954a9578bf", "2037be47b70054fa",
        "163bb0d2a01a6598", "f3ad993d9856fa38", "6a4e8f7cfe9e4fe8",
        "9a90d72921ce83e1", "e4b4fc7f7706baa8", "4d56d0af10af5588",
        "f8b00c1c85787690", "a629bfb4bef14553", "f7a3a1d5c778cd1e",
        "245b0bce5a458910", "addebaac4f23613a", "6a048fea33a15c4c",
        "a55f4617d92af04b", "83415850c7704a69", "2cd5330daa755088",
        "c359c53234a9290e", "3080994cccad8785", "ca6beda8405a9c80",
        "eac4b715a4c50174", "a8a64a4248f0bc50", "1f9b97ac4da21847",
        "98f80af40f2c322e", "560871836303d71f", "416fc2d52d6437b2",
        "149c7f938b93d1fc", "8dd850a032fa3c2e", "b0e1b4b285230671",
        "71fa8d5985d578a5", "484b36d8ccd5391c", "0bdd460cbd0b1ba4",
        "3dd18dfe2c099d04", "eab2ed0d36540cf6", "6d916cd1756ad383"}},
      {"ext_stubborn", true,
       {"b7d613e8c6fd08fc", "a2875980b2c51990", "0d54c32e26971317",
        "a54786fc48ed9855", "d25a26a6d7ec6e2e", "53342ef1f7ef12b3",
        "7f2af9c833c249fb", "f97ba2e496113b87", "b1f1587e95b36431",
        "de4e4f4bff5005dd", "7b156cd7e1421f82", "f53649ad965895ac",
        "1a22076e3f381efb", "fae0f896683ccdc6", "a9579be03170adba",
        "078e21d30c926a6f", "cb728c11cca96335", "b6dd725b8ff9ceb7"}},
      {"ext_timeline", false, {}},
      {"ext_timeline", true, {}},
      {"ext_difficulty", false, {}},
      {"ext_difficulty", true, {}},
      {"delay_network", false,
       {"9b7423520dfce817", "ac6b1426ea6d8da6", "f0be6d7a82e0fb85",
        "5b2de38b5cb18159", "26ede47d9c27721b"}},
      {"delay_network", true,
       {"b8dc1d01e7857820", "fda84cc40aed93fd", "69e05eae2be22ae2",
        "986239806769a5fc", "918d88e7c82e068c"}},
      {"net_gamma", false,
       {"68439575fed1cb78", "83fde31416a25d46", "99c4acbafd80494d",
        "6079ed7a37b6098f", "8d411e30453ed4c0", "d844d51c70d1df1b",
        "6ee27e2c657eeed3", "7085eef72187f5d5"}},
      {"net_gamma", true,
       {"314c51492424e8eb", "3c6e0587d5f0e186", "4ff00cdd42e58e3d"}},
      {"net_faults", false,
       {"1e29815a06c18bd9", "a3445f1455a3cc89", "ca8d2c47c84da952",
        "6cd083268c17ddb8", "6c358441664717c8", "4b37a319d1d7f971",
        "3dd5be4a6d713709", "7686acdb1eae5b19", "fa4f99d735d6e553",
        "7fad85781de1535f", "4eab5b2514d6c7e0", "89361805e7bebefe",
        "cec77c13d4a6a72d", "03c8ea02aba4bb71", "7bfacf2d1468ca1d",
        "460f61cb0d8a1bd3"}},
      {"net_faults", true,
       {"e41a0c67f86a7792", "9a5767a9efc67182", "e6fc7827e9f49fec",
        "cc94ee097dc71c46", "fe834747689708f6", "8470f09b24b391c9"}},
  };
  return kGolden;
}

TEST(CheckpointFingerprintGolden, EveryPresetFullAndQuick) {
  for (const Preset& preset : presets()) {
    for (const bool quick : {false, true}) {
      const std::string label = preset.name + (quick ? " --quick" : "");
      const PresetKeys* golden = nullptr;
      for (const PresetKeys& g : golden_preset_keys()) {
        if (g.preset == preset.name && g.quick == quick) golden = &g;
      }
      ASSERT_NE(golden, nullptr) << label << ": no golden keys pinned";
      EXPECT_EQ(hex_keys(preset.spec(quick)), golden->keys) << label;
    }
  }
  EXPECT_EQ(golden_preset_keys().size(), 2 * presets().size())
      << "a pinned preset is no longer registered";
}

TEST(CheckpointFingerprintGolden, NetFaultsZooCell) {
  // examples/studies/net_faults_zoo.study without its comments and title.
  const StudySpec study = parse_study(
      "study = net_faults_zoo\n"
      "kind = net\n"
      "alphas = 0.15,0.3,0.45\n"
      "net.nodes = 12\n"
      "net.latency = fixed:140\n"
      "sim_runs = 3\n"
      "sim_blocks = 20000\n"
      "matrix.net.faults.drop = 0|0.05|0.2\n"
      "matrix.net.faults.churn = off|70000:14000\n"
      "quick.alphas = 0.3\n"
      "quick.sim_runs = 2\n"
      "quick.sim_blocks = 4000\n");
  const std::string cell =
      "base, net.faults.drop=0.05, net.faults.churn=70000:14000";

  // Per alpha: the faulted sweep, then its clean baseline.
  const std::vector<std::string> full = 
      {"2e13bf1511649bed", "79c9f7b69371cca8", "a84cf2d643a88c16",
       "0417368ba06f342b", "fd813303366e07fb", "7f0d2bbd82df1b04"};
  const std::vector<std::string> quick = 
      {"ba5e035e1ac7cf26", "ff806fecc3994f38"};
  for (const bool is_quick : {false, true}) {
    const auto entries = expand_study(study, is_quick);
    ASSERT_EQ(entries.size(), 6u);
    const StudyEntry* entry = nullptr;
    for (const StudyEntry& e : entries) {
      if (e.name == cell) entry = &e;
    }
    ASSERT_NE(entry, nullptr) << cell;
    EXPECT_EQ(hex_keys(entry->spec), is_quick ? quick : full)
        << (is_quick ? "--quick" : "full");
  }
}

}  // namespace
}  // namespace ethsm::api
