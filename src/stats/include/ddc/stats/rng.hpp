// Deterministic random-number streams.
//
// Simulations must be reproducible from (configuration, seed): every node
// and the environment (delays, crashes) gets its own independent stream so
// that changing one node's behaviour does not shift everyone else's
// randomness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include <ddc/common/assert.hpp>

namespace ddc::stats {

/// A seeded random stream. Thin wrapper over std::mt19937_64 with the
/// sampling helpers the simulator and workload generators need.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Derives a child stream; `derive(s)` for distinct `s` yields streams
  /// that are independent for simulation purposes. Implemented with
  /// SplitMix64 over (seed, salt) so that child seeds are well spread even
  /// for consecutive salts.
  [[nodiscard]] static Rng derive(std::uint64_t seed, std::uint64_t salt);

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform();

  /// Uniform double in [lo, hi). Requires lo < hi.
  [[nodiscard]] double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Inline: RoundPlan's
  /// selection draws call it once per node in their one sequential pass.
  [[nodiscard]] std::size_t uniform_index(std::size_t n) {
    DDC_EXPECTS(n > 0);
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
  }

  /// Standard normal sample.
  [[nodiscard]] double normal();

  /// Normal sample with the given mean and standard deviation (σ ≥ 0).
  [[nodiscard]] double normal(double mean, double stddev);

  /// Bernoulli trial with success probability p ∈ [0, 1].
  [[nodiscard]] bool bernoulli(double p);

  /// Samples an index with probability proportional to `weights[i]`.
  /// Requires at least one strictly positive weight.
  [[nodiscard]] std::size_t discrete(const std::vector<double>& weights);

  /// Underlying engine, for std distributions not wrapped here.
  [[nodiscard]] std::mt19937_64& engine() noexcept { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// SplitMix64 step — public because tests and seed-derivation use it.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Derives a child SEED (rather than a stream) from (seed, salt) — for
/// components that take a seed in their options and construct their own
/// streams. `Rng::derive(s, t)` and `Rng(derive_seed(s, t))` produce
/// identical streams.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t salt) noexcept;

}  // namespace ddc::stats
