// Property/fuzz suite for the spec codec (ctest -L api): randomized valid
// ExperimentSpecs must round-trip parse_spec(print_spec(s)) == s exactly.
// The generator draws every experiment kind, every reward / strategy / fault
// / topology grammar the parser accepts, and adversarial doubles (shortest
// round-trip printing is the codec's load-bearing piece), while respecting
// the semantic validation in spec_from_entries -- the point is that every
// *valid* spec survives the text format, not that invalid ones do.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/spec.h"
#include "support/math_util.h"
#include "support/rng.h"

namespace ethsm::api {
namespace {

using support::Xoshiro256;

constexpr ExperimentKind kAllKinds[] = {
    ExperimentKind::revenue,      ExperimentKind::threshold,
    ExperimentKind::reward_design, ExperimentKind::uncle_distance,
    ExperimentKind::reward_table, ExperimentKind::stubborn_sim,
    ExperimentKind::timeline,     ExperimentKind::retarget,
    ExperimentKind::delay,        ExperimentKind::net,
};

template <typename T, std::size_t N>
const T& pick(Xoshiro256& rng, const T (&options)[N]) {
  return options[static_cast<std::size_t>(rng.uniform01() * N) % N];
}

/// Adversarial-but-finite double: mixes magnitudes and signs so the
/// shortest-round-trip printer is exercised well beyond "0.3"-like values.
double fuzz_double(Xoshiro256& rng) {
  const double u = rng.uniform01();
  switch (static_cast<int>(rng.uniform01() * 5.0)) {
    case 0: return u;
    case 1: return u * 1e6;
    case 2: return u * 1e-9;
    case 3: return -u;
    default: return (u - 0.5) * 1e3;
  }
}

std::vector<double> fuzz_grid(Xoshiro256& rng, int max_len) {
  const int len = static_cast<int>(rng.uniform01() * (max_len + 1));
  std::vector<double> grid(static_cast<std::size_t>(len));
  for (double& v : grid) v = fuzz_double(rng);
  return grid;
}

std::string fuzz_reward_spec(Xoshiro256& rng) {
  switch (static_cast<int>(rng.uniform01() * 4.0)) {
    case 0: return "byzantium";
    case 1: return "bitcoin";
    case 2: {
      std::string spec = "flat:";
      spec += support::print_shortest_double(rng.uniform01());
      if (rng.uniform01() < 0.5) {
        spec += ':';
        spec += std::to_string(1 + static_cast<int>(rng.uniform01() * 9.0));
      }
      return spec;
    }
    default: {
      std::string spec = "table:";
      const int len = 1 + static_cast<int>(rng.uniform01() * 6.0);
      for (int i = 0; i < len; ++i) {
        if (i) spec += ',';
        spec += support::print_shortest_double(rng.uniform01());
      }
      return spec;
    }
  }
}

std::string fuzz_strategy_spec(Xoshiro256& rng) {
  static const char* kStrategies[] = {
      "selfish",   "lead",        "fork",           "trail:1",
      "trail:3",   "lead+fork",   "fork+trail:2",   "lead+trail:1",
      "lead+fork+trail:4",
  };
  return pick(rng, kStrategies);
}

/// One random valid spec. Each field mutates independently with some
/// probability so the printed form covers everything from "kind = revenue"
/// one-liners to fully-populated specs.
ExperimentSpec fuzz_spec(Xoshiro256& rng) {
  ExperimentSpec spec;
  spec.kind = pick(rng, kAllKinds);
  auto maybe = [&rng](double p) { return rng.uniform01() < p; };

  if (maybe(0.4)) spec.title = "fuzzed spec (= tricky punctuation :+,)";
  if (maybe(0.5)) spec.gamma = rng.uniform01();
  if (maybe(0.2)) spec.gamma = maybe(0.5) ? 0.0 : 1.0;
  if (maybe(0.3)) spec.scenario = 2;
  if (maybe(0.5)) spec.alpha = 0.001 + 0.998 * rng.uniform01();
  if (maybe(0.5)) spec.alphas = fuzz_grid(rng, 6);
  if (maybe(0.4)) spec.gammas = fuzz_grid(rng, 5);
  if (maybe(0.3)) spec.ku_values = fuzz_grid(rng, 4);
  if (maybe(0.3)) spec.delays = fuzz_grid(rng, 4);
  if (maybe(0.5)) spec.rewards = fuzz_reward_spec(rng);
  if (maybe(0.3)) spec.max_lead = 1 + static_cast<int>(rng.uniform01() * 600.0);
  if (maybe(0.3)) spec.tolerance = 1e-9 + rng.uniform01();
  if (maybe(0.2)) spec.alpha_min = 1e-5 + 0.1 * rng.uniform01();
  if (maybe(0.2)) spec.alpha_max = 0.4 + 0.0999 * rng.uniform01();
  if (maybe(0.2)) {
    spec.threshold_max_lead = 1 + static_cast<int>(rng.uniform01() * 200.0);
  }
  if (maybe(0.3)) spec.sim_runs = static_cast<int>(rng.uniform01() * 64.0);
  if (maybe(0.3)) spec.sim_blocks = 1 + static_cast<std::uint64_t>(rng() >> 24);
  if (maybe(0.3)) spec.sim_seed = rng();
  if (maybe(0.3)) spec.shares = fuzz_grid(rng, 8);
  if (maybe(0.4)) {
    static const char* kTopologies[] = {
        "star", "ring", "random:0.25", "random:1", "two_clusters:5",
    };
    spec.net_topology = pick(rng, kTopologies);
  }
  if (maybe(0.3)) spec.net_nodes = 1 + static_cast<int>(rng.uniform01() * 511.0);
  if (maybe(0.4)) {
    static const char* kLatencies[] = {
        "fixed:3", "fixed:0.5", "uniform:1:7", "exp:2.5",
    };
    spec.net_latency = pick(rng, kLatencies);
  }
  if (maybe(0.3)) spec.net_relay = "announce";
  if (maybe(0.3)) spec.net_fault_drop = 0.999 * rng.uniform01();
  if (maybe(0.3)) {
    static const char* kChurns[] = {"400:100", "1:1", "2500.5:300"};
    spec.net_fault_churn = pick(rng, kChurns);
  }
  if (maybe(0.3)) {
    static const char* kPartitions[] = {
        "10:50", "0:100:bridge", "5:5:random", "1:200:attacker",
    };
    spec.net_fault_partition = pick(rng, kPartitions);
  }
  if (maybe(0.3)) {
    // victim is validated against net.nodes; victim = 1 is always legal.
    static const char* kEclipses[] = {"1:250", "1:0", "1:100:0.5"};
    spec.net_fault_eclipse = pick(rng, kEclipses);
  }
  if (maybe(0.3)) spec.epoch_blocks = 1 + static_cast<std::uint64_t>(rng() >> 48);
  if (maybe(0.3)) spec.epochs = 1 + static_cast<int>(rng.uniform01() * 200.0);
  if (maybe(0.3)) spec.phase1_blocks = 1.0 + rng.uniform01() * 5000.0;
  if (maybe(0.4)) {
    const int count = 1 + static_cast<int>(rng.uniform01() * 3.0);
    for (int i = 0; i < count; ++i) {
      SeriesSpec series;
      series.label = "series " + std::to_string(i);
      if (rng.uniform01() < 0.7) series.rewards = fuzz_reward_spec(rng);
      if (rng.uniform01() < 0.5) series.strategy = fuzz_strategy_spec(rng);
      spec.series.push_back(series);
    }
  }
  return spec;
}

// The headline property: 600 randomized valid specs round-trip bitwise
// through the text format. operator== is the compiler-generated field-wise
// comparison, so this pins every field including the grids and series.
TEST(SpecFuzzRoundTrip, RandomValidSpecsSurvivePrintParse) {
  Xoshiro256 rng(0x5bec'f022'aaULL);
  for (int i = 0; i < 600; ++i) {
    const ExperimentSpec spec = fuzz_spec(rng);
    std::string text;
    ASSERT_NO_THROW(text = print_spec(spec)) << "iteration " << i;
    ExperimentSpec reparsed;
    ASSERT_NO_THROW(reparsed = parse_spec(text))
        << "iteration " << i << "\n--- printed spec ---\n" << text;
    ASSERT_EQ(reparsed, spec)
        << "iteration " << i << "\n--- printed spec ---\n" << text;
  }
}

// Every kind round-trips even with all other fields at defaults (the
// shortest possible spec file).
TEST(SpecFuzzRoundTrip, EveryKindRoundTripsAtDefaults) {
  for (ExperimentKind kind : kAllKinds) {
    ExperimentSpec spec;
    spec.kind = kind;
    EXPECT_EQ(parse_spec(print_spec(spec)), spec) << to_string(kind);
  }
}

// A second print after a round trip must be byte-identical: print is a
// canonical form, not merely an inverse of parse.
TEST(SpecFuzzRoundTrip, PrintIsIdempotentOnRoundTrippedSpecs) {
  Xoshiro256 rng(0x1de'0b5e'55ULL);
  for (int i = 0; i < 100; ++i) {
    const ExperimentSpec spec = fuzz_spec(rng);
    const std::string once = print_spec(spec);
    const std::string twice = print_spec(parse_spec(once));
    EXPECT_EQ(once, twice) << "iteration " << i;
  }
}

// Values that cannot survive the line-oriented grammar must be refused at
// print time, not silently emitted as a spec that re-parses differently.
TEST(SpecFuzzRoundTrip, RefusesUnserializableValues) {
  ExperimentSpec with_hash;
  with_hash.title = "density # comment";
  EXPECT_THROW((void)print_spec(with_hash), SpecError);

  ExperimentSpec with_newline;
  with_newline.title = "two\nlines";
  EXPECT_THROW((void)print_spec(with_newline), SpecError);
}

}  // namespace
}  // namespace ethsm::api
