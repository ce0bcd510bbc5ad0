// Convenience constructors for whole networks of protocol nodes.
//
// Experiments repeat the same setup — n inputs, one node each, shared
// protocol parameters, per-node derived RNG streams — so it lives here
// once instead of in every bench.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/core/classifier.hpp>
#include <ddc/em/mixture_reduction.hpp>
#include <ddc/gossip/classifier_node.hpp>
#include <ddc/gossip/push_sum.hpp>
#include <ddc/linalg/vector.hpp>
#include <ddc/sim/topology.hpp>
#include <ddc/stats/rng.hpp>

namespace ddc::gossip {

/// Shared parameters of a classifier network.
struct NetworkConfig {
  std::size_t k = 2;
  std::int64_t quanta_per_unit = std::int64_t{1} << 20;
  bool track_aux = false;
  std::uint64_t seed = 1;
};

/// Per-node classifier options for node `i` of `n`.
[[nodiscard]] inline core::ClassifierOptions node_options(
    const NetworkConfig& config, std::size_t i, std::size_t n) {
  core::ClassifierOptions options;
  options.k = config.k;
  options.quanta_per_unit = config.quanta_per_unit;
  options.track_aux = config.track_aux;
  options.num_nodes = n;
  options.node_index = i;
  return options;
}

/// One GM node (paper Section 5) per input, each with its own derived RNG
/// stream for EM restarts. With `ids`, only those nodes are built, in
/// that order. Every per-node stream derives from the GLOBAL id, so a
/// node's randomness does not depend on which shard hosts it.
[[nodiscard]] inline std::vector<GmNode> make_gm_nodes(
    const std::vector<linalg::Vector>& inputs, const NetworkConfig& config,
    em::ReductionOptions reduction = {},
    std::optional<std::span<const sim::NodeId>> ids = std::nullopt) {
  DDC_EXPECTS(!inputs.empty());
  std::vector<GmNode> nodes;
  const std::size_t count = ids ? ids->size() : inputs.size();
  nodes.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    const sim::NodeId i = ids ? (*ids)[k] : k;
    DDC_EXPECTS(i < inputs.size());
    nodes.emplace_back(
        inputs[i],
        partition::EmPartition(stats::Rng::derive(config.seed, i), reduction),
        node_options(config, i, inputs.size()));
  }
  return nodes;
}

/// One centroid node (paper Algorithm 2) per input, or per id in `ids`
/// (see make_gm_nodes).
[[nodiscard]] inline std::vector<CentroidNode> make_centroid_nodes(
    const std::vector<linalg::Vector>& inputs, const NetworkConfig& config,
    std::optional<std::span<const sim::NodeId>> ids = std::nullopt) {
  DDC_EXPECTS(!inputs.empty());
  std::vector<CentroidNode> nodes;
  const std::size_t count = ids ? ids->size() : inputs.size();
  nodes.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    const sim::NodeId i = ids ? (*ids)[k] : k;
    DDC_EXPECTS(i < inputs.size());
    nodes.emplace_back(
        inputs[i],
        partition::GreedyDistancePartition<summaries::CentroidPolicy>{},
        node_options(config, i, inputs.size()));
  }
  return nodes;
}

/// One push-sum node (regular average aggregation baseline) per input.
[[nodiscard]] inline std::vector<PushSumNode> make_push_sum_nodes(
    const std::vector<linalg::Vector>& inputs) {
  DDC_EXPECTS(!inputs.empty());
  std::vector<PushSumNode> nodes;
  nodes.reserve(inputs.size());
  for (const auto& input : inputs) nodes.emplace_back(input);
  return nodes;
}

}  // namespace ddc::gossip
