#include "markov/transition_model.h"

#include "support/check.h"

namespace ethsm::markov {

void MiningParams::validate() const {
  ETHSM_EXPECTS(alpha >= 0.0 && alpha < 0.5,
                "alpha must lie in [0, 0.5) for a positive-recurrent chain");
  ETHSM_EXPECTS(gamma >= 0.0 && gamma <= 1.0, "gamma must lie in [0, 1]");
}

static_assert(static_cast<int>(TransitionKind::honest_fork_extend) + 1 ==
                  kNumTransitionKinds,
              "kNumTransitionKinds out of sync with the TransitionKind enum");

TransitionModel::TransitionModel(const StateSpace& space,
                                 const MiningParams& params)
    : space_(space), params_(params) {
  params_.validate();
  build();
  build_kind_batched();
  build_incoming();
}

void TransitionModel::build() {
  const double a = params_.alpha;
  const double b = params_.beta();
  const double g = params_.gamma;
  const int n = space_.size();

  row_offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  columns_.clear();
  rates_.clear();
  kinds_.clear();
  const auto reserve = static_cast<std::size_t>(n) * 3;
  columns_.reserve(reserve);
  rates_.reserve(reserve);
  kinds_.reserve(reserve);

  auto idx = [this](int ls, int lh) {
    const int i = space_.index_of(State{ls, lh});
    ETHSM_ENSURES(i >= 0, "transition target outside the state space");
    return i;
  };

  for (int s = 0; s < n; ++s) {
    row_offsets_[static_cast<std::size_t>(s)] =
        static_cast<std::uint32_t>(columns_.size());
    const State st = space_.state_at(s);
    auto add = [&](int to, double rate, TransitionKind kind) {
      if (rate > 0.0) {
        columns_.push_back(to);
        rates_.push_back(rate);
        kinds_.push_back(kind);
      }
    };

    if (st == State{0, 0}) {
      add(s, b, TransitionKind::honest_at_consensus);
      add(idx(1, 0), a, TransitionKind::pool_first_lead);
    } else if (st == State{1, 0}) {
      add(idx(2, 0), a, TransitionKind::pool_extend_lead);
      add(idx(1, 1), b, TransitionKind::honest_match);
    } else if (st == State{1, 1}) {
      // Pool reaches (2,1) and instantly wins; honest resolves either way.
      add(idx(0, 0), a, TransitionKind::pool_win_tie);
      add(idx(0, 0), b, TransitionKind::honest_resolve_tie);
    } else if (st.lh == 0) {
      // (i, 0), i >= 2: pool keeps extending; an honest block either forces
      // the final publish (i == 2) or opens the first public fork (i >= 3).
      const int to_pool = st.ls + 1 <= space_.max_lead()
                              ? idx(st.ls + 1, 0)
                              : s;  // truncation: self-loop
      add(to_pool, a, TransitionKind::pool_extend_lead);
      if (st.ls == 2) {
        add(idx(0, 0), b, TransitionKind::honest_resolve_lead2_nofork);
      } else {
        add(idx(st.ls, 1), b, TransitionKind::honest_first_fork);
      }
    } else {
      // (i, j), j >= 1, i - j >= 2.
      const int to_pool = st.ls + 1 <= space_.max_lead()
                              ? idx(st.ls + 1, st.lh)
                              : s;  // truncation: self-loop
      add(to_pool, a, TransitionKind::pool_extend_lead);
      if (st.lead() == 2) {
        add(idx(0, 0), b * g, TransitionKind::honest_resolve_lead2_prefix);
        add(idx(0, 0), b * (1.0 - g), TransitionKind::honest_resolve_lead2_fork);
      } else {
        add(idx(st.lead(), 1), b * g, TransitionKind::honest_prefix_reroot);
        add(idx(st.ls, st.lh + 1), b * (1.0 - g),
            TransitionKind::honest_fork_extend);
      }
    }
  }
  row_offsets_[static_cast<std::size_t>(n)] =
      static_cast<std::uint32_t>(columns_.size());
}

void TransitionModel::build_kind_batched() {
  const std::size_t nnz = rates_.size();
  // Counting sort by kind, stable within a kind (original CSR entry order),
  // so the permutation -- and every sum the reward kernel takes over it --
  // is deterministic.
  std::array<std::uint32_t, kNumTransitionKinds> counts{};
  for (TransitionKind k : kinds_) {
    ++counts[static_cast<std::size_t>(static_cast<std::uint8_t>(k))];
  }
  batched_.offsets[0] = 0;
  for (int k = 0; k < kNumTransitionKinds; ++k) {
    batched_.offsets[static_cast<std::size_t>(k) + 1] =
        batched_.offsets[static_cast<std::size_t>(k)] +
        counts[static_cast<std::size_t>(k)];
  }
  batched_.source.resize(nnz);
  batched_.rate.resize(nnz);
  batched_.distance.resize(nnz);

  std::array<std::uint32_t, kNumTransitionKinds> cursor{};
  for (int k = 0; k < kNumTransitionKinds; ++k) {
    cursor[static_cast<std::size_t>(k)] =
        batched_.offsets[static_cast<std::size_t>(k)];
  }
  const int n = space_.size();
  for (int s = 0; s < n; ++s) {
    const State st = space_.state_at(s);
    for (std::uint32_t e = row_offsets_[static_cast<std::size_t>(s)];
         e < row_offsets_[static_cast<std::size_t>(s) + 1]; ++e) {
      const TransitionKind kind = kinds_[e];
      const auto slot = cursor[static_cast<std::size_t>(
          static_cast<std::uint8_t>(kind))]++;
      batched_.source[slot] = s;
      batched_.rate[slot] = rates_[e];
      // The locked-in uncle distance is the only state dependence of the
      // Appendix-B reward flow: the pool's full lead i for Case 10, the
      // effective lead i-j for Case 7 (analysis/reward_cases.cpp).
      int distance = 0;
      if (kind == TransitionKind::honest_first_fork) {
        distance = st.ls;
      } else if (kind == TransitionKind::honest_prefix_reroot) {
        distance = st.lead();
      }
      batched_.distance[slot] = distance;
    }
  }
}

void TransitionModel::build_incoming() {
  const auto n = static_cast<std::size_t>(space_.size());
  incoming_.col_offsets.assign(n + 1, 0);
  std::vector<double> self_rate(n, 0.0);

  // Counting sort by target column, row by row in CSR order; self-loops go
  // to self_rate instead of the entry arrays (Gauss-Seidel divides them out).
  for (std::size_t s = 0; s < n; ++s) {
    for (std::uint32_t e = row_offsets_[s]; e < row_offsets_[s + 1]; ++e) {
      const auto to = static_cast<std::size_t>(columns_[e]);
      if (to != s) ++incoming_.col_offsets[to + 1];
    }
  }
  for (std::size_t c = 0; c < n; ++c) {
    incoming_.col_offsets[c + 1] += incoming_.col_offsets[c];
  }
  incoming_.source.resize(incoming_.col_offsets[n]);
  incoming_.rate.resize(incoming_.col_offsets[n]);

  std::vector<std::uint32_t> cursor(incoming_.col_offsets.begin(),
                                    incoming_.col_offsets.end() - 1);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::uint32_t e = row_offsets_[s]; e < row_offsets_[s + 1]; ++e) {
      const auto to = static_cast<std::size_t>(columns_[e]);
      if (to == s) {
        self_rate[s] += rates_[e];
        continue;
      }
      const auto slot = cursor[to]++;
      incoming_.source[slot] = static_cast<std::int32_t>(s);
      incoming_.rate[slot] = rates_[e];
    }
  }

  incoming_.inv_diag.resize(n);
  for (std::size_t c = 0; c < n; ++c) {
    const double d = 1.0 - self_rate[c];
    incoming_.inv_diag[c] = d > 1e-12 ? 1.0 / d : 0.0;
  }
}

}  // namespace ethsm::markov
