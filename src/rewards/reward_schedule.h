// Mining-reward schedules (paper Sec. III-B, Table I, Eq. (7), Remarks 6/7).
//
// All rewards are expressed relative to the static block reward Ks = 1:
//   * static reward   -- every main-chain ("regular") block earns Ks.
//   * uncle reward    -- Ku(d): earned by the miner of a stale block that is a
//                        direct child of the main chain and is referenced by a
//                        later main-chain block ("nephew") at height distance d.
//                        Byzantium uses Ku(d) = (8-d)/8 for d in 1..6, else 0.
//   * nephew reward   -- Kn(d): earned by the referencing main-chain block's
//                        miner; constant 1/32 in Ethereum (for d in 1..6).
//
// The paper's analysis is parametric in Ku(·) and Kn(·) (Remarks 6 and 7); the
// Sec. VI defense proposal is simply a different UncleRewardSchedule. Bitcoin
// is the degenerate schedule Ku = Kn = 0.

#ifndef ETHSM_REWARDS_REWARD_SCHEDULE_H
#define ETHSM_REWARDS_REWARD_SCHEDULE_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ethsm::rewards {

/// Maximum height distance at which an uncle can still be referenced by a
/// nephew in Ethereum (and hence in the paper's analysis).
inline constexpr int kMaxUncleDistance = 6;

/// Nephew reward in Ethereum: 1/32 of the static reward.
inline constexpr double kEthereumNephewReward = 1.0 / 32.0;

/// Abstract uncle-reward function Ku(d) (paper Remark 6).
class UncleRewardSchedule {
 public:
  virtual ~UncleRewardSchedule() = default;

  /// Reward for an uncle referenced at distance d >= 1, relative to Ks.
  /// Must return 0 for d > max_distance().
  [[nodiscard]] virtual double reward(int distance) const = 0;

  /// Largest distance with a non-zero reward (also the reference-eligibility
  /// horizon used by the chain substrate).
  [[nodiscard]] virtual int max_distance() const { return kMaxUncleDistance; }

  /// Human-readable name used in experiment outputs ("Ku(.) Byzantium", ...).
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Byzantium / EIP-released schedule: Ku(d) = (8-d)/8, d = 1..6 (paper Eq. 7).
class ByzantiumUncleSchedule final : public UncleRewardSchedule {
 public:
  [[nodiscard]] double reward(int distance) const override;
  [[nodiscard]] std::string name() const override { return "Ku(.) Byzantium (8-d)/8"; }
};

/// Flat schedule: Ku(d) = value for d = 1..max_distance, 0 beyond. The paper's
/// Fig. 9 uses values 2/8..7/8; the Sec. VI defense proposal is value = 4/8.
class FlatUncleSchedule final : public UncleRewardSchedule {
 public:
  explicit FlatUncleSchedule(double value, int max_distance = kMaxUncleDistance);
  [[nodiscard]] double reward(int distance) const override;
  [[nodiscard]] int max_distance() const override { return max_distance_; }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_;
  int max_distance_;
};

/// Bitcoin: no uncle rewards at all.
class ZeroUncleSchedule final : public UncleRewardSchedule {
 public:
  [[nodiscard]] double reward(int) const override { return 0.0; }
  [[nodiscard]] int max_distance() const override { return 0; }
  [[nodiscard]] std::string name() const override { return "Ku = 0 (Bitcoin)"; }
};

/// Arbitrary user-provided table: entry d-1 holds Ku(d).
class TableUncleSchedule final : public UncleRewardSchedule {
 public:
  explicit TableUncleSchedule(std::vector<double> values, std::string name);
  [[nodiscard]] double reward(int distance) const override;
  [[nodiscard]] int max_distance() const override {
    return static_cast<int>(values_.size());
  }
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  std::vector<double> values_;
  std::string name_;
};

/// Nephew-reward function Kn(d) (paper Remark 7): constant within the
/// reference horizon, zero beyond it. Ethereum: 1/32; Bitcoin: 0.
class NephewRewardSchedule {
 public:
  explicit NephewRewardSchedule(double value = kEthereumNephewReward,
                                int max_distance = kMaxUncleDistance);

  [[nodiscard]] double reward(int distance) const;
  [[nodiscard]] int max_distance() const noexcept { return max_distance_; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_;
  int max_distance_;
};

/// Bundle of the three reward components plus reference-horizon knobs; this is
/// what both the Markov analysis and the simulator consume.
struct RewardConfig {
  std::shared_ptr<const UncleRewardSchedule> uncle =
      std::make_shared<ByzantiumUncleSchedule>();
  NephewRewardSchedule nephew{};

  /// Maximum uncles one nephew may reference. Ethereum caps this at 2; the
  /// paper's analysis implicitly assumes no cap, so that is the default here
  /// (0 means unlimited). The simulator honours whatever is set.
  int max_uncles_per_block = 0;

  [[nodiscard]] static RewardConfig ethereum_byzantium();
  /// Flat Ku(d) = ku_value for d <= max_distance (paper Fig. 9 / Sec. VI).
  /// The paper applies its flat rewards "regardless of the distance"; pass a
  /// large max_distance (e.g. 100) for that reading, or keep the Ethereum
  /// structural cap of 6 (the default). The two differ visibly: at
  /// alpha = 0.45, gamma = 0.5, Ku = 7/8 the total revenue is 1.347 uncapped
  /// and 1.269 capped (pinned by PaperFig9.TotalRevenueSoarsTo135Percent).
  [[nodiscard]] static RewardConfig ethereum_flat(
      double ku_value, int max_distance = kMaxUncleDistance);
  [[nodiscard]] static RewardConfig bitcoin();

  [[nodiscard]] double uncle_reward(int distance) const {
    return uncle->reward(distance);
  }
  [[nodiscard]] double nephew_reward(int distance) const {
    return nephew.reward(distance);
  }
  /// A block at distance d can be referenced iff d <= reference_horizon().
  /// (Reward may still be zero there if Ku(d)=0 but Kn pays; in Ethereum both
  /// cut off at 6 together.)
  [[nodiscard]] int reference_horizon() const {
    return std::max(uncle->max_distance(), nephew.max_distance());
  }
};

/// Row of the Table-I inventory (reward types in Ethereum vs Bitcoin).
struct RewardTypeInfo {
  std::string reward_type;
  bool in_ethereum;
  bool in_bitcoin;
  std::string purpose;
};

/// The content of the paper's Table I (`ethsm run table1`).
[[nodiscard]] std::vector<RewardTypeInfo> table1_reward_inventory();

/// 64-bit digest of the *numeric content* of a reward configuration (every
/// Ku(d)/Kn(d) value over the reference horizon plus the per-block uncle
/// cap), used in sweep-checkpoint fingerprints. Two configs that price every
/// distance identically fingerprint identically regardless of schedule class.
[[nodiscard]] std::uint64_t sweep_fingerprint(const RewardConfig& config);

}  // namespace ethsm::rewards

#endif  // ETHSM_REWARDS_REWARD_SCHEDULE_H
