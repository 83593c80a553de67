#include "support/rng.h"

#include <cmath>

namespace ethsm::support {

double Xoshiro256::exponential(double rate) noexcept {
  // Inverse-CDF sampling on (0,1] so log() never sees zero.
  return -std::log(uniform01_open_low()) / rate;
}

std::uint64_t Xoshiro256::uniform_below(std::uint64_t bound) noexcept {
  if (bound == 0) return 0;
  // Lemire's nearly-divisionless method with rejection to remove bias.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t derive_seed(std::uint64_t master,
                          std::uint64_t stream_index) noexcept {
  // Mix the pair (master, index) through SplitMix64 twice; the constant breaks
  // the symmetry derive_seed(a, b) == derive_seed(b, a).
  SplitMix64 sm(master ^ (0x9e3779b97f4a7c15ULL + stream_index * 0xbf58476d1ce4e5b9ULL));
  sm.next();
  return sm.next();
}

}  // namespace ethsm::support
