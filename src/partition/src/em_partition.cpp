#include <ddc/partition/em_partition.hpp>

#include <chrono>

#include <ddc/common/assert.hpp>
#include <ddc/stats/mixture.hpp>

namespace ddc::partition {

namespace {

stats::GaussianMixture to_input_mixture(
    const std::vector<core::WeightedSummary<stats::Gaussian>>& collections) {
  DDC_EXPECTS(!collections.empty());
  std::vector<stats::WeightedGaussian> components;
  components.reserve(collections.size());
  for (const auto& c : collections) {
    components.push_back({c.weight, c.summary});
  }
  return stats::GaussianMixture(std::move(components));
}

}  // namespace

core::Grouping EmPartition::partition(
    const std::vector<core::WeightedSummary<stats::Gaussian>>& collections,
    std::size_t k) {
  // Audited timing probe: feeds only the em_seconds reporting counter
  // (`ddcsim --timing`), never control flow.
  const auto start = std::chrono::steady_clock::now();  // ddcverify: allow(wall-clock)
  core::Grouping groups =
      em::reduce_em(to_input_mixture(collections), k, rng_, options_).groups;
  em_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)  // ddcverify: allow(wall-clock)
          .count();
  return groups;
}

core::Grouping RunnallsPartition::partition(
    const std::vector<core::WeightedSummary<stats::Gaussian>>& collections,
    std::size_t k) const {
  return em::reduce_runnalls(to_input_mixture(collections), k).groups;
}

core::Grouping NearestMeansPartition::partition(
    const std::vector<core::WeightedSummary<stats::Gaussian>>& collections,
    std::size_t k) const {
  return em::reduce_nearest_means(to_input_mixture(collections), k).groups;
}

}  // namespace ddc::partition
