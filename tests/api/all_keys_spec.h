// One ExperimentSpec with every key set away from its default, shared by the
// spec-codec byte golden (spec_test.cpp) and the fingerprint-completeness
// property test, which takes its list of keys from print_spec of this spec.

#ifndef ETHSM_TESTS_API_ALL_KEYS_SPEC_H
#define ETHSM_TESTS_API_ALL_KEYS_SPEC_H

#include "api/spec.h"

namespace ethsm::testutil {

inline api::ExperimentSpec all_keys_spec() {
  api::ExperimentSpec spec;
  spec.kind = api::ExperimentKind::net;
  spec.title = "Every key, off its default";
  spec.gamma = 0.25;
  spec.scenario = 2;
  spec.alpha = 0.2;
  spec.alphas = {0.1, 0.2};
  spec.gammas = {0.0, 0.5};
  spec.ku_values = {0.25};
  spec.delays = {0.05, 0.1};
  spec.series = {{"first", "flat:0.5", "lead"},
                 {"second", "bitcoin", "fork+trail:2"}};
  spec.rewards = "table:0.9,0.5";
  spec.max_lead = 12;
  spec.tolerance = 1e-3;
  spec.alpha_min = 0.01;
  spec.alpha_max = 0.45;
  spec.threshold_max_lead = 10;
  spec.sim_runs = 2;
  spec.sim_blocks = 300;
  spec.sim_seed = 0xabcdef;
  spec.shares = {0.5, 0.3, 0.2};
  spec.net_topology = "ring";
  spec.net_nodes = 6;
  spec.net_latency = "uniform:1:5";
  spec.net_relay = "announce";
  spec.net_fault_drop = 0.05;
  spec.net_fault_churn = "500:100";
  spec.net_fault_partition = "100:400";
  spec.net_fault_eclipse = "1:50";
  spec.epoch_blocks = 100;
  spec.epochs = 5;
  spec.phase1_blocks = 300.0;
  return spec;
}

}  // namespace ethsm::testutil

#endif  // ETHSM_TESTS_API_ALL_KEYS_SPEC_H
