#include "analysis/revenue.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "analysis/solve_memo.h"
#include "support/check.h"

namespace ethsm::analysis {

namespace {

/// Weighted sum over one kind batch: sum of pi[source[e]] * rate[e]. Four
/// independent accumulators break the loop-carried add dependency so the
/// compiler can keep multiple FMAs in flight (and vectorize the gather on
/// targets that support it). Every term is non-negative, so the sum is
/// well-conditioned and plain accumulation stays far inside the 1e-12
/// relative envelope the differential suite enforces against the Kahan
/// reference (tests/kernel/).
double batch_weight_sum(const double* pi, const std::int32_t* source,
                        const double* rate, std::uint32_t begin,
                        std::uint32_t end) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::uint32_t e = begin;
  for (; e + 4 <= end; e += 4) {
    a0 += pi[source[e]] * rate[e];
    a1 += pi[source[e + 1]] * rate[e + 1];
    a2 += pi[source[e + 2]] * rate[e + 2];
    a3 += pi[source[e + 3]] * rate[e + 3];
  }
  for (; e < end; ++e) a0 += pi[source[e]] * rate[e];
  return (a0 + a1) + (a2 + a3);
}

void add_scaled_flow(RevenueBreakdown& out, double weight,
                     const RewardFlow& flow) {
  out.pool_static += weight * flow.pool_static;
  out.pool_uncle += weight * flow.pool_uncle;
  out.pool_nephew += weight * flow.pool_nephew;
  out.honest_static += weight * flow.honest_static;
  out.honest_uncle += weight * flow.honest_uncle;
  out.honest_nephew += weight * flow.honest_nephew;
  out.regular_rate += weight * flow.regular_probability;
  out.referenced_uncle_rate += weight * flow.referenced_uncle_probability;
}

/// A state of the given kind's source family, used to evaluate the (state
/// independent) reward flow of the ten constant kinds exactly once per call.
/// The two distance-dependent kinds are handled separately below.
markov::State representative_state(markov::TransitionKind kind) {
  using markov::TransitionKind;
  switch (kind) {
    case TransitionKind::honest_at_consensus:
    case TransitionKind::pool_first_lead: return {0, 0};
    case TransitionKind::pool_extend_lead:
    case TransitionKind::honest_match: return {1, 0};
    case TransitionKind::pool_win_tie:
    case TransitionKind::honest_resolve_tie: return {1, 1};
    case TransitionKind::honest_resolve_lead2_nofork: return {2, 0};
    case TransitionKind::honest_resolve_lead2_prefix:
    case TransitionKind::honest_resolve_lead2_fork: return {3, 1};
    case TransitionKind::honest_first_fork: return {3, 0};
    case TransitionKind::honest_prefix_reroot:
    case TransitionKind::honest_fork_extend: return {4, 1};
  }
  return {0, 0};
}

}  // namespace

KernelWeights kernel_weights(const markov::StationaryDistribution& pi,
                             const markov::TransitionModel& model) {
  // Kind-batched kernel: the Appendix-B reward flow of a transition depends
  // on (kind, params, config) plus -- for exactly two kinds -- the locked-in
  // uncle distance. So instead of a per-entry switch + flow evaluation (the
  // reference implementation, kept byte-for-byte in tests/kernel/
  // reference_engines.cpp), each kind batch reduces to one branch-free
  // weighted sum; the two distance kinds scatter their weights by distance,
  // and price() evaluates one flow per distance.
  using markov::TransitionKind;
  const auto& batched = model.kind_batched();
  const double* pi_values = pi.values().data();
  const std::int32_t* source = batched.source.data();
  const double* rate = batched.rate.data();
  const auto distances =
      static_cast<std::size_t>(model.space().max_lead()) + 1;

  KernelWeights out;
  out.first_fork_by_distance.assign(distances, 0.0);
  out.reroot_by_distance.assign(distances, 0.0);
  for (int k = 0; k < markov::kNumTransitionKinds; ++k) {
    const std::uint32_t begin = batched.offsets[static_cast<std::size_t>(k)];
    const std::uint32_t end = batched.offsets[static_cast<std::size_t>(k) + 1];
    const auto kind = static_cast<TransitionKind>(k);
    if (kind != TransitionKind::honest_first_fork &&
        kind != TransitionKind::honest_prefix_reroot) {
      out.kind[static_cast<std::size_t>(k)] =
          batch_weight_sum(pi_values, source, rate, begin, end);
      continue;
    }
    // Both distance kinds' distances lie in [3, max_lead].
    std::vector<double>& by_distance = kind == TransitionKind::honest_first_fork
                                           ? out.first_fork_by_distance
                                           : out.reroot_by_distance;
    const std::int32_t* distance = batched.distance.data();
    for (std::uint32_t e = begin; e < end; ++e) {
      by_distance[static_cast<std::size_t>(distance[e])] +=
          pi_values[source[e]] * rate[e];
    }
  }
  return out;
}

RevenueBreakdown price(const KernelWeights& weights,
                       const markov::MiningParams& params,
                       const rewards::RewardConfig& config) {
  using markov::TransitionKind;
  RevenueBreakdown out;
  for (int k = 0; k < markov::kNumTransitionKinds; ++k) {
    const auto kind = static_cast<TransitionKind>(k);
    if (kind != TransitionKind::honest_first_fork &&
        kind != TransitionKind::honest_prefix_reroot) {
      const double weight = weights.kind[static_cast<std::size_t>(k)];
      if (weight == 0.0) continue;
      const RewardFlow flow =
          expected_rewards(representative_state(kind), kind, params, config);
      add_scaled_flow(out, weight, flow);
      continue;
    }

    // Distance-dependent kinds (Cases 7 and 10): price each distance once.
    // Beyond the reference horizon the flow is identically zero (the target
    // block stays plain stale), so those weights are skipped -- exactly what
    // the reference computes for them.
    const std::vector<double>& by_distance =
        kind == TransitionKind::honest_first_fork ? weights.first_fork_by_distance
                                                  : weights.reroot_by_distance;
    const int max_lead = static_cast<int>(by_distance.size()) - 1;
    const int horizon = std::min(max_lead, config.reference_horizon());
    for (int d = 3; d <= horizon; ++d) {
      const double weight = by_distance[static_cast<std::size_t>(d)];
      if (weight == 0.0) continue;
      // Synthesize a source state with the right locked-in distance; the
      // flow evaluation reuses the reference case code verbatim.
      const markov::State from = kind == TransitionKind::honest_first_fork
                                     ? markov::State{d, 0}
                                     : markov::State{d + 1, 1};
      add_scaled_flow(out, weight, expected_rewards(from, kind, params, config));
    }
  }
  return out;
}

RevenueBreakdown compute_revenue(const markov::StationaryDistribution& pi,
                                 const markov::TransitionModel& model,
                                 const rewards::RewardConfig& config) {
  return price(kernel_weights(pi, model), model.params(), config);
}

RevenueBreakdown compute_revenue(const markov::MiningParams& params,
                                 const rewards::RewardConfig& config,
                                 int max_lead, RevenueCache* cache) {
  return SolveMemo::process().revenue(params, config, max_lead, cache);
}

}  // namespace ethsm::analysis
