#include "analysis/sweep.h"

#include <algorithm>

#include "analysis/bitcoin_es.h"
#include "analysis/solve_memo.h"
#include "support/check.h"
#include "support/parallel.h"
#include "support/rng.h"

namespace ethsm::analysis {

std::vector<double> fig8_alpha_grid() {
  std::vector<double> alphas;
  for (int i = 0; i <= 18; ++i) alphas.push_back(0.025 * i);
  return alphas;
}

std::vector<double> fig10_gamma_grid() {
  std::vector<double> gammas;
  for (int i = 0; i <= 20; ++i) gammas.push_back(0.05 * i);
  return gammas;
}

namespace {

/// Per-point master seed; kept identical to the historical serial driver so
/// recorded experiment outputs stay reproducible.
std::uint64_t point_seed(const RevenueCurveOptions& options, double alpha) {
  return support::derive_seed(options.sim_seed,
                              static_cast<std::uint64_t>(alpha * 1e6));
}

std::vector<double> curve_alphas(const RevenueCurveOptions& options) {
  return options.alphas.empty() ? fig8_alpha_grid() : options.alphas;
}

std::vector<double> curve_gammas(const ThresholdCurveOptions& options) {
  return options.gammas.empty() ? fig10_gamma_grid() : options.gammas;
}

void mix_grid(support::Fingerprint& fp, const std::vector<double>& grid) {
  fp.mix(static_cast<std::uint64_t>(grid.size()));
  for (double x : grid) fp.mix(x);
}

std::uint64_t revenue_markov_fingerprint(const RevenueCurveOptions& options,
                                         const std::vector<double>& alphas) {
  support::Fingerprint fp;
  fp.mix("revenue_curve/markov/v1");
  fp.mix(options.gamma);
  fp.mix(rewards::sweep_fingerprint(options.rewards));
  fp.mix(static_cast<int>(options.scenario));
  fp.mix(options.max_lead);
  mix_grid(fp, alphas);
  return fp.digest();
}

std::uint64_t revenue_sim_fingerprint(const RevenueCurveOptions& options,
                                      const std::vector<double>& alphas) {
  support::Fingerprint fp;
  fp.mix("revenue_curve/sim/v1");
  fp.mix(options.gamma);
  fp.mix(rewards::sweep_fingerprint(options.rewards));
  fp.mix(options.sim_runs);
  fp.mix(options.sim_blocks);
  fp.mix(options.sim_seed);
  mix_grid(fp, alphas);
  return fp.digest();
}

}  // namespace

std::vector<std::uint64_t> revenue_curve_fingerprints(
    const RevenueCurveOptions& options) {
  const std::vector<double> alphas = curve_alphas(options);
  std::vector<std::uint64_t> fps{revenue_markov_fingerprint(options, alphas)};
  if (options.sim_runs > 0) {
    fps.push_back(revenue_sim_fingerprint(options, alphas));
  }
  return fps;
}

std::uint64_t threshold_curve_fingerprint(
    const ThresholdCurveOptions& options) {
  const std::vector<double> gammas = curve_gammas(options);
  support::Fingerprint fp;
  fp.mix("threshold_curve/v1");
  fp.mix(rewards::sweep_fingerprint(options.rewards));
  fp.mix(options.threshold.alpha_min);
  fp.mix(options.threshold.alpha_max);
  fp.mix(options.threshold.tolerance);
  fp.mix(options.threshold.max_lead);
  mix_grid(fp, gammas);
  return fp.digest();
}

std::vector<std::vector<RevenuePoint>> revenue_curve(
    const std::vector<RevenueCurveOptions>& curves,
    const support::SweepCheckpoint& checkpoint,
    support::SweepOutcome* outcome) {
  std::vector<std::vector<double>> alphas;
  // {Markov key[, simulation key when sim_runs > 0]} per curve.
  std::vector<std::vector<std::uint64_t>> keys;
  std::vector<support::SweepKey> markov_sweeps;
  std::vector<ColdSolve> solves;
  for (const RevenueCurveOptions& options : curves) {
    alphas.push_back(curve_alphas(options));
    keys.push_back(revenue_curve_fingerprints(options));
    markov_sweeps.push_back({keys.back()[0], alphas.back().size()});
    for (double alpha : alphas.back()) {
      solves.push_back({{alpha, options.gamma}, options.max_lead});
    }
  }

  // Markov analysis: one independent job per (curve, alpha), costliest first.
  support::SweepOutcome progress;
  const auto markov = support::run_checkpointed<RevenuePoint>(
      checkpoint, &progress, markov_sweeps,
      [&](std::size_t c, std::size_t i) {
        const RevenueCurveOptions& options = curves[c];
        const double alpha = alphas[c][i];
        RevenuePoint point;
        point.alpha = alpha;

        const markov::MiningParams params{alpha, options.gamma};
        const RevenueBreakdown r =
            compute_revenue(params, options.rewards, options.max_lead);
        point.pool_revenue = pool_absolute_revenue(r, options.scenario);
        point.honest_revenue = honest_absolute_revenue(r, options.scenario);
        point.total_revenue = total_revenue(r, options.scenario);
        point.uncle_rate = r.regular_rate == 0.0
                               ? 0.0
                               : r.referenced_uncle_rate / r.regular_rate;
        return point;
      }, cold_solve_costs(solves));

  std::vector<std::vector<RevenuePoint>> out(curves.size());
  for (std::size_t c = 0; c < curves.size(); ++c) {
    out[c].resize(alphas[c].size());
    for (std::size_t i = 0; i < alphas[c].size(); ++i) {
      if (markov[c].have[i]) {
        out[c][i] = markov[c].results[i];
      } else {
        out[c][i].alpha = alphas[c][i];  // grid position even without a result
      }
    }
  }

  // Monte-Carlo cross-checks: fan out over (curve x alpha x run) jobs, the
  // finest granularity available, so a 19-alpha x 10-run sweep keeps every
  // core busy. Per-run seeds replicate the serial run_many chain exactly and
  // the per-point aggregation below absorbs in run order, so each curve is
  // bitwise-identical for any thread count -- and, checkpointed, across
  // resume/shard splits. The sim fingerprint excludes the scenario: per-run
  // results do not depend on it (it only weighs the aggregation), so records
  // are shared across scenario changes.
  struct SimJob {
    std::size_t point_index = 0;
    int run = 0;
  };
  std::vector<std::size_t> sim_curves;  // curves with a simulation key
  std::vector<std::vector<SimJob>> jobs;
  std::vector<support::SweepKey> sim_sweeps;
  for (std::size_t c = 0; c < curves.size(); ++c) {
    if (keys[c].size() < 2) continue;
    sim_curves.push_back(c);
    auto& curve_jobs = jobs.emplace_back();
    for (std::size_t i = 0; i < alphas[c].size(); ++i) {
      if (alphas[c][i] <= 0.0) continue;
      for (int r = 0; r < curves[c].sim_runs; ++r) curve_jobs.push_back({i, r});
    }
    sim_sweeps.push_back({keys[c][1], curve_jobs.size()});
  }
  if (!sim_sweeps.empty()) {
    // The simulation pass gets what the Markov pass left of the budget.
    support::SweepCheckpoint sim_checkpoint = checkpoint;
    sim_checkpoint.max_new_jobs -=
        std::min(progress.computed, sim_checkpoint.max_new_jobs);
    const auto sims = support::run_checkpointed<sim::SimResult>(
        sim_checkpoint, &progress, sim_sweeps,
        [&](std::size_t k, std::size_t j) {
          const std::size_t c = sim_curves[k];
          const RevenueCurveOptions& options = curves[c];
          const double alpha = alphas[c][jobs[k][j].point_index];
          sim::SimConfig sim_config;
          sim_config.alpha = alpha;
          sim_config.gamma = options.gamma;
          sim_config.rewards = options.rewards;
          sim_config.num_blocks = options.sim_blocks;
          sim_config.seed =
              support::derive_seed(point_seed(options, alpha),
                                   static_cast<std::uint64_t>(jobs[k][j].run));
          return sim::run_simulation(sim_config);
        });

    // A point's simulation columns are filled only when every one of its
    // runs is present (absorbed in run order); with a partial shard they
    // stay nullopt until the merge run sees all shards' records.
    for (std::size_t k = 0; k < sim_curves.size(); ++k) {
      const std::size_t c = sim_curves[k];
      const RevenueCurveOptions& options = curves[c];
      const auto& sweep = sims[k];
      std::size_t j = 0;
      for (std::size_t i = 0; i < alphas[c].size(); ++i) {
        if (alphas[c][i] <= 0.0) continue;
        const std::size_t first = j;
        bool all_present = true;
        for (int r = 0; r < options.sim_runs; ++r) {
          if (!sweep.have[j++]) all_present = false;
        }
        if (!all_present) continue;
        sim::MultiRunSummary sum;
        for (std::size_t m = first; m < j; ++m) sum.absorb(sweep.results[m]);
        RevenuePoint& point = out[c][i];
        point.pool_revenue_sim = sum.pool_revenue(options.scenario).mean();
        point.honest_revenue_sim = sum.honest_revenue(options.scenario).mean();
        point.pool_revenue_sim_ci =
            sum.pool_revenue(options.scenario).ci_halfwidth();
        point.honest_revenue_sim_ci =
            sum.honest_revenue(options.scenario).ci_halfwidth();
      }
      ETHSM_ENSURES(j == sweep.results.size(), "sim job accounting mismatch");
    }
  }
  support::report_progress(outcome, progress);
  return out;
}

std::vector<ThresholdPoint> threshold_curve(
    const ThresholdCurveOptions& options,
    const support::SweepCheckpoint& checkpoint,
    support::SweepOutcome* outcome) {
  const std::vector<double> gammas = curve_gammas(options);

  // One job per gamma; each runs two bisections (both difficulty scenarios)
  // that share nothing across gammas.
  const auto sweep = support::run_checkpointed<ThresholdPoint>(
      checkpoint, outcome,
      {{threshold_curve_fingerprint(options), gammas.size()}},
      [&](std::size_t, std::size_t i) {
        const double gamma = gammas[i];
        ThresholdPoint point;
        point.gamma = gamma;
        point.bitcoin = eyal_sirer_threshold(gamma);
        point.ethereum_scenario1 =
            profitability_threshold(gamma, options.rewards,
                                    Scenario::regular_rate_one,
                                    options.threshold);
        point.ethereum_scenario2 =
            profitability_threshold(gamma, options.rewards,
                                    Scenario::regular_and_uncle_rate_one,
                                    options.threshold);
        return point;
      }).front();

  std::vector<ThresholdPoint> curve(gammas.size());
  for (std::size_t i = 0; i < gammas.size(); ++i) {
    if (sweep.have[i]) {
      curve[i] = sweep.results[i];
    } else {
      curve[i].gamma = gammas[i];
    }
  }
  return curve;
}

}  // namespace ethsm::analysis

namespace ethsm::support {

namespace {

void put_optional(ByteWriter& w, const std::optional<double>& v) {
  w.boolean(v.has_value());
  w.f64(v.value_or(0.0));
}

std::optional<double> take_optional(ByteReader& r) {
  const bool has = r.boolean();
  const double value = r.f64();
  return has ? std::optional<double>(value) : std::nullopt;
}

}  // namespace

void CheckpointCodec<analysis::RevenuePoint>::encode(
    ByteWriter& w, const analysis::RevenuePoint& point) {
  w.f64(point.alpha);
  w.f64(point.pool_revenue);
  w.f64(point.honest_revenue);
  w.f64(point.total_revenue);
  w.f64(point.uncle_rate);
  put_optional(w, point.pool_revenue_sim);
  put_optional(w, point.honest_revenue_sim);
  put_optional(w, point.pool_revenue_sim_ci);
  put_optional(w, point.honest_revenue_sim_ci);
}

analysis::RevenuePoint CheckpointCodec<analysis::RevenuePoint>::decode(
    ByteReader& r) {
  analysis::RevenuePoint point;
  point.alpha = r.f64();
  point.pool_revenue = r.f64();
  point.honest_revenue = r.f64();
  point.total_revenue = r.f64();
  point.uncle_rate = r.f64();
  point.pool_revenue_sim = take_optional(r);
  point.honest_revenue_sim = take_optional(r);
  point.pool_revenue_sim_ci = take_optional(r);
  point.honest_revenue_sim_ci = take_optional(r);
  return point;
}

void CheckpointCodec<analysis::ThresholdPoint>::encode(
    ByteWriter& w, const analysis::ThresholdPoint& point) {
  w.f64(point.gamma);
  w.f64(point.bitcoin);
  put_optional(w, point.ethereum_scenario1);
  put_optional(w, point.ethereum_scenario2);
}

analysis::ThresholdPoint CheckpointCodec<analysis::ThresholdPoint>::decode(
    ByteReader& r) {
  analysis::ThresholdPoint point;
  point.gamma = r.f64();
  point.bitcoin = r.f64();
  point.ethereum_scenario1 = take_optional(r);
  point.ethereum_scenario2 = take_optional(r);
  return point;
}

}  // namespace ethsm::support
