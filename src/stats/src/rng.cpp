#include <ddc/stats/rng.hpp>

#include <vector>

#include <ddc/common/assert.hpp>

namespace ddc::stats {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) noexcept {
  std::uint64_t state = seed ^ (0x6a09e667f3bcc909ULL + salt * 0x3c6ef372fe94f82bULL);
  const std::uint64_t a = splitmix64(state);
  const std::uint64_t b = splitmix64(state);
  return a ^ (b << 1);
}

Rng Rng::derive(std::uint64_t seed, std::uint64_t salt) {
  return Rng(derive_seed(seed, salt));
}

double Rng::uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::uniform(double lo, double hi) {
  DDC_EXPECTS(lo < hi);
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

double Rng::normal() { return std::normal_distribution<double>(0.0, 1.0)(engine_); }

double Rng::normal(double mean, double stddev) {
  DDC_EXPECTS(stddev >= 0.0);
  if (stddev == 0.0) return mean;
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

bool Rng::bernoulli(double p) {
  DDC_EXPECTS(p >= 0.0 && p <= 1.0);
  return std::bernoulli_distribution(p)(engine_);
}

std::size_t Rng::discrete(const std::vector<double>& weights) {
  DDC_EXPECTS(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    DDC_EXPECTS(w >= 0.0);
    total += w;
  }
  DDC_EXPECTS(total > 0.0);
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  return weights.size() - 1;  // numerical edge: r consumed by rounding
}

}  // namespace ddc::stats
