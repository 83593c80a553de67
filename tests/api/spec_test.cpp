// Experiment-spec codec tests: parse -> print -> parse identity for every
// registered preset, override validation (--set semantics), grid/reward/
// strategy value parsing, and the provenance fingerprint.

#include "api/spec.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "analysis/sweep.h"
#include "api/all_keys_spec.h"
#include "api/presets.h"
#include "api/result.h"

namespace ethsm::api {
namespace {

TEST(SpecCodec, PrintParseIdentityForEveryPreset) {
  for (const Preset& preset : presets()) {
    for (const bool quick : {false, true}) {
      const ExperimentSpec spec = preset.spec(quick);
      const std::string text = print_spec(spec);
      const ExperimentSpec reparsed = parse_spec(text);
      EXPECT_EQ(reparsed, spec) << preset.name << (quick ? " --quick" : "")
                                << "\n--- printed ---\n" << text;
      // And printing is canonical: a second round trip is a fixed point.
      EXPECT_EQ(print_spec(reparsed), text) << preset.name;
    }
  }
}

TEST(SpecCodec, ParsePrintParseIdentityForHandwrittenSpec) {
  const char* text =
      "# a custom scenario, zero new C++\n"
      "kind = threshold\n"
      "title = Custom uncle schedule\n"
      "rewards = table:0.9,0.6,0.3\n"
      "gammas = 0:1:0.25   # range syntax\n"
      "tolerance = 1e-4\n";
  const ExperimentSpec first = parse_spec(text);
  const ExperimentSpec second = parse_spec(print_spec(first));
  EXPECT_EQ(second, first);
  EXPECT_EQ(first.gammas, (std::vector<double>{0.0, 0.25, 0.5, 0.75, 1.0}));
}

TEST(SpecCodec, RangeSyntaxMatchesPaperGrids) {
  // The range expansion computes start + i*step, exactly the arithmetic the
  // default grids use -- so a spec writing the grid out by range produces
  // bitwise-identical alphas (and hence identical sweep fingerprints).
  const ExperimentSpec spec = parse_spec("kind = revenue\nalphas = 0:0.45:0.025\n");
  EXPECT_EQ(spec.alphas, analysis::fig8_alpha_grid());
  const ExperimentSpec gspec = parse_spec("kind = threshold\ngammas = 0:1:0.05\n");
  EXPECT_EQ(gspec.gammas, analysis::fig10_gamma_grid());
}

TEST(SpecCodec, UnknownKeyIsAnError) {
  EXPECT_THROW((void)parse_spec("kind = revenue\nbogus = 1\n"), SpecError);
  EXPECT_THROW((void)parse_spec("series.0.wat = 1\n"), SpecError);
  // `kind = delay` sweeps `delays`; there is no singular `delay` key.
  EXPECT_THROW((void)parse_spec("kind = delay\ndelay = 0.2\n"), SpecError);
}

TEST(SpecCodec, NetKeysRoundTripAndValidateEagerly) {
  const char* text =
      "kind = net\n"
      "net.topology = two_clusters:2000\n"
      "net.nodes = 12\n"
      "net.latency = uniform:20:80\n"
      "net.relay = announce\n";
  const ExperimentSpec spec = parse_spec(text);
  EXPECT_EQ(spec.kind, ExperimentKind::net);
  EXPECT_EQ(spec.net_topology, "two_clusters:2000");
  EXPECT_EQ(spec.net_nodes, 12);
  EXPECT_EQ(spec.net_latency, "uniform:20:80");
  EXPECT_EQ(spec.net_relay, "announce");
  EXPECT_EQ(parse_spec(print_spec(spec)), spec);

  // Malformed grammars die at parse time with the offending key named.
  EXPECT_THROW((void)parse_spec("kind = net\nnet.topology = mesh\n"),
               SpecError);
  EXPECT_THROW((void)parse_spec("kind = net\nnet.latency = 50\n"), SpecError);
  EXPECT_THROW((void)parse_spec("kind = net\nnet.relay = flood\n"), SpecError);
  EXPECT_THROW((void)parse_spec("kind = net\nnet.nodes = 0\n"), SpecError);
  EXPECT_THROW((void)parse_spec("kind = net\nnet.nodes = 100000\n"), SpecError);
}

TEST(SpecCodec, NetFaultKeysRoundTripAndValidateEagerly) {
  const char* text =
      "kind = net\n"
      "net.nodes = 12\n"
      "net.faults.drop = 0.05\n"
      "net.faults.churn = 70000:14000\n"
      "net.faults.partition = 1000:9000:bridge\n"
      "net.faults.eclipse = 3:5000:0.25\n";
  const ExperimentSpec spec = parse_spec(text);
  EXPECT_EQ(spec.net_fault_drop, 0.05);
  EXPECT_EQ(spec.net_fault_churn, "70000:14000");
  EXPECT_EQ(spec.net_fault_partition, "1000:9000:bridge");
  EXPECT_EQ(spec.net_fault_eclipse, "3:5000:0.25");
  EXPECT_EQ(parse_spec(print_spec(spec)), spec);

  // A default (all-off) spec prints no net.faults.* lines at all.
  ExperimentSpec clean;
  clean.kind = ExperimentKind::net;
  EXPECT_EQ(print_spec(clean).find("net.faults"), std::string::npos);

  // Malformed fault grammars die at parse time with the key named.
  EXPECT_THROW((void)parse_spec("kind = net\nnet.faults.drop = 1\n"),
               SpecError);
  EXPECT_THROW((void)parse_spec("kind = net\nnet.faults.drop = -0.1\n"),
               SpecError);
  EXPECT_THROW((void)parse_spec("kind = net\nnet.faults.churn = 70000\n"),
               SpecError);
  EXPECT_THROW((void)parse_spec("kind = net\nnet.faults.partition = 9:1\n"),
               SpecError);
  EXPECT_THROW((void)parse_spec("kind = net\nnet.faults.eclipse = 0:5\n"),
               SpecError);
  // Cross-field semantics: the eclipse victim must be one of the honest
  // nodes the run will actually have.
  EXPECT_THROW((void)parse_spec("kind = net\nnet.nodes = 4\n"
                                "net.faults.eclipse = 5:100\n"),
               SpecError);
  EXPECT_NO_THROW((void)parse_spec("kind = net\nnet.nodes = 4\n"
                                   "net.faults.eclipse = 4:100\n"));
}

TEST(SpecCodec, StudyGrammarInASpecSuggestsTheStudySubcommands) {
  // `ethsm run --spec FILE` on a study file used to die with a bare
  // unknown-key error; the message must now point at run --study / expand.
  for (const char* text :
       {"study = zoo\nkind = net\n", "kind = net\nmatrix.gamma = 0|1\n",
        "kind = net\nvariant.a.rewards = byzantium\n",
        "kind = net\nquick.sim_runs = 2\n"}) {
    try {
      (void)parse_spec(text);
      FAIL() << "expected SpecError for:\n" << text;
    } catch (const SpecError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("ethsm run --study"), std::string::npos) << what;
      EXPECT_NE(what.find("ethsm expand"), std::string::npos) << what;
    }
  }
}

TEST(SpecCodec, MalformedValuesAreErrors) {
  EXPECT_THROW((void)parse_spec("gamma = abc\n"), SpecError);
  EXPECT_THROW((void)parse_spec("kind = nope\n"), SpecError);
  EXPECT_THROW((void)parse_spec("scenario = 3\n"), SpecError);
  EXPECT_THROW((void)parse_spec("gamma = 1.5\n"), SpecError);
  EXPECT_THROW((void)parse_spec("sim_blocks = 0\n"), SpecError);
  // strtoull would wrap these to ~2^64; they must be rejected, not run.
  EXPECT_THROW((void)parse_spec("sim_blocks = -5\n"), SpecError);
  EXPECT_THROW((void)parse_spec("sim_seed = -1\n"), SpecError);
  EXPECT_THROW((void)parse_spec("alphas = 0.4:0.1:0.1\n"), SpecError);
  EXPECT_THROW((void)parse_spec("just a line without equals\n"), SpecError);
}

TEST(SpecCodec, PrintRefusesValuesTheGrammarCannotCarry) {
  // '#' starts a comment and '\n' a new entry, so a free-text value holding
  // either would re-parse differently; print_spec refuses instead of
  // emitting a spec that silently breaks the round-trip contract.
  ExperimentSpec spec;
  spec.title = "experiment #1";
  EXPECT_THROW((void)print_spec(spec), SpecError);
  spec.title = "two\nlines";
  EXPECT_THROW((void)print_spec(spec), SpecError);
}

TEST(SpecCodec, SetOverridesApplyThroughTheSameValidation) {
  SpecEntries entries = parse_spec_entries(print_spec(preset_spec("fig8", false)));
  apply_override(entries, "gamma=0.3");
  apply_override(entries, "sim_runs=2");
  const ExperimentSpec spec = spec_from_entries(entries);
  EXPECT_EQ(spec.gamma, 0.3);
  EXPECT_EQ(spec.sim_runs, 2);

  // Unknown keys and malformed values fail exactly like spec files.
  SpecEntries bad = entries;
  apply_override(bad, "definitely_not_a_key=7");
  EXPECT_THROW((void)spec_from_entries(bad), SpecError);
  SpecEntries malformed = entries;
  apply_override(malformed, "gamma=not-a-number");
  EXPECT_THROW((void)spec_from_entries(malformed), SpecError);
  EXPECT_THROW(apply_override(entries, "missing-equals"), SpecError);
}

TEST(SpecCodec, RewardSpecStringsPriceLikeTheFactories) {
  const auto flat = parse_reward_spec("flat:0.5");
  const auto reference = rewards::RewardConfig::ethereum_flat(0.5);
  for (int d = 1; d <= 8; ++d) {
    EXPECT_EQ(flat.uncle_reward(d), reference.uncle_reward(d)) << d;
    EXPECT_EQ(flat.nephew_reward(d), reference.nephew_reward(d)) << d;
  }
  EXPECT_EQ(rewards::sweep_fingerprint(flat),
            rewards::sweep_fingerprint(reference));

  const auto wide = parse_reward_spec("flat:0.875:100");
  EXPECT_EQ(wide.reference_horizon(), 100);
  EXPECT_EQ(wide.uncle_reward(100), 0.875);

  const auto table = parse_reward_spec("table:0.9,0.6,0.3");
  EXPECT_EQ(table.uncle_reward(1), 0.9);
  EXPECT_EQ(table.uncle_reward(3), 0.3);
  EXPECT_EQ(table.uncle_reward(4), 0.0);
  EXPECT_EQ(table.reference_horizon(), 3);

  const auto bitcoin = parse_reward_spec("bitcoin");
  EXPECT_EQ(bitcoin.reference_horizon(), 0);

  EXPECT_THROW((void)parse_reward_spec("flat"), SpecError);
  EXPECT_THROW((void)parse_reward_spec("flat:-1"), SpecError);
  EXPECT_THROW((void)parse_reward_spec("golden"), SpecError);
}

TEST(SpecCodec, StrategySpecStrings) {
  const auto alg1 = parse_strategy_spec("selfish");
  EXPECT_FALSE(alg1.lead);
  EXPECT_FALSE(alg1.fork);
  EXPECT_EQ(alg1.trail, 0);

  const auto lf = parse_strategy_spec("lead+fork");
  EXPECT_TRUE(lf.lead);
  EXPECT_TRUE(lf.fork);

  const auto t2 = parse_strategy_spec("trail:2");
  EXPECT_EQ(t2.trail, 2);

  EXPECT_THROW((void)parse_strategy_spec("yolo"), SpecError);
  EXPECT_THROW((void)parse_strategy_spec("trail:0"), SpecError);

  // A component may appear once; the error names the repeated one.
  for (const auto& [text, component] :
       std::vector<std::pair<std::string, std::string>>{
           {"trail:1+trail:2", "trail"},
           {"trail:2+trail:2", "trail"},
           {"lead+lead", "lead"},
           {"fork+lead+fork", "fork"},
           {"lead + trail:1 + lead", "lead"}}) {
    try {
      (void)parse_strategy_spec(text);
      ADD_FAILURE() << text << " was accepted";
    } catch (const SpecError& e) {
      EXPECT_NE(std::string(e.what()).find("repeated component '" +
                                           component + "'"),
                std::string::npos)
          << text << ": " << e.what();
    }
  }
}

TEST(SpecCodec, AllKeysPrintBytesArePinned) {
  // print_spec's bytes -- key order included -- are what spec_fingerprint,
  // checkpoint keys, study manifests and served payloads hash, so the
  // canonical text of a spec with every key off its default is frozen here.
  const char* kGolden =
      "kind = net\n"
      "title = Every key, off its default\n"
      "gamma = 0.25\n"
      "scenario = 2\n"
      "alpha = 0.2\n"
      "alphas = 0.1,0.2\n"
      "gammas = 0,0.5\n"
      "ku_values = 0.25\n"
      "delays = 0.05,0.1\n"
      "rewards = table:0.9,0.5\n"
      "max_lead = 12\n"
      "tolerance = 0.001\n"
      "alpha_min = 0.01\n"
      "alpha_max = 0.45\n"
      "threshold_max_lead = 10\n"
      "sim_runs = 2\n"
      "sim_blocks = 300\n"
      "sim_seed = 0xabcdef\n"
      "shares = 0.5,0.3,0.2\n"
      "net.topology = ring\n"
      "net.nodes = 6\n"
      "net.latency = uniform:1:5\n"
      "net.relay = announce\n"
      "net.faults.drop = 0.05\n"
      "net.faults.churn = 500:100\n"
      "net.faults.partition = 100:400\n"
      "net.faults.eclipse = 1:50\n"
      "epoch_blocks = 100\n"
      "epochs = 5\n"
      "phase1_blocks = 300\n"
      "series.0.label = first\n"
      "series.0.rewards = flat:0.5\n"
      "series.0.strategy = lead\n"
      "series.1.label = second\n"
      "series.1.rewards = bitcoin\n"
      "series.1.strategy = fork+trail:2\n";
  const ExperimentSpec spec = testutil::all_keys_spec();
  EXPECT_EQ(print_spec(spec), kGolden);
  EXPECT_EQ(parse_spec(kGolden), spec);
}

TEST(SpecCodec, FingerprintSeparatesSpecs) {
  const auto full = spec_fingerprint(preset_spec("fig8", false));
  const auto quick = spec_fingerprint(preset_spec("fig8", true));
  const auto other = spec_fingerprint(preset_spec("fig10", false));
  EXPECT_NE(full, quick);
  EXPECT_NE(full, other);
  // Deterministic across calls.
  EXPECT_EQ(full, spec_fingerprint(preset_spec("fig8", false)));
}

TEST(SpecCodec, UnknownPresetListsKnownNames) {
  try {
    (void)preset_spec("figure8", false);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("fig8"), std::string::npos);
  }
}

}  // namespace
}  // namespace ethsm::api
