// Deterministic, fast random-number generation for the mining simulators.
//
// We use xoshiro256** (Blackman & Vigna) seeded through SplitMix64. Rationale:
//  * reproducibility across platforms (std::mt19937_64 is portable too, but the
//    distributions in <random> are NOT -- std::exponential_distribution may
//    produce different streams on different standard libraries, which would make
//    the recorded experiment outputs machine-dependent). All distribution
//    sampling here is hand-rolled and fully specified.
//
// The generator satisfies the C++ UniformRandomBitGenerator concept so it can
// still be plugged into <random> when portability of the stream is not needed.

#ifndef ETHSM_SUPPORT_RNG_H
#define ETHSM_SUPPORT_RNG_H

#include <array>
#include <cstdint>
#include <limits>

namespace ethsm::support {

/// SplitMix64: used to expand a 64-bit seed into xoshiro state. Also a fine
/// standalone generator for hashing-style mixing.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: the library's workhorse PRNG.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via SplitMix64.
  explicit Xoshiro256(std::uint64_t seed = 0x8e51'2cafe'5eedULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& w : state_) w = sm.next();
    // An all-zero state is the one invalid state; SplitMix64 cannot emit four
    // zeros in a row from any seed, so no further handling is required.
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in (0, 1]; never returns 0, safe for log().
  double uniform01_open_low() noexcept {
    return (static_cast<double>((*this)() >> 11) + 1.0) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept { return uniform01() < p; }

  /// Exponential variate with the given rate (mean 1/rate).
  double exponential(double rate) noexcept;

  /// Uniform integer in [0, bound) using Lemire's multiply-shift rejection.
  std::uint64_t uniform_below(std::uint64_t bound) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Derives a child seed from (master, stream_index); used so every simulation
/// run in a multi-run experiment is independently and reproducibly seeded.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t master,
                                        std::uint64_t stream_index) noexcept;

}  // namespace ethsm::support

#endif  // ETHSM_SUPPORT_RNG_H
