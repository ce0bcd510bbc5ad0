// Factory helpers for sharded runs, mirroring gossip/runners.hpp.
//
// A shard builds ONLY its owned set, through the same
// gossip::make_*_nodes the monolithic engines use, restricted to
// map.owned(s). Those builders derive every per-node stream from the
// protocol seed by GLOBAL node id, so a node's randomness does not
// depend on which shard hosts it, and the equivalence matrix (1 vs S
// shards) can demand bit-identical states.
#pragma once

#include <utility>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/gossip/classifier_node.hpp>
#include <ddc/gossip/network.hpp>
#include <ddc/gossip/runners.hpp>
#include <ddc/linalg/vector.hpp>
#include <ddc/net/transport.hpp>
#include <ddc/shard/cluster.hpp>
#include <ddc/shard/shard_engine.hpp>
#include <ddc/shard/shard_map.hpp>
#include <ddc/sim/engine_config.hpp>

namespace ddc::shard {

using GmShardEngine = ShardEngine<gossip::GmNode>;
using CentroidShardEngine = ShardEngine<gossip::CentroidNode>;
using GmShardCluster = ShardCluster<gossip::GmNode>;
using CentroidShardCluster = ShardCluster<gossip::CentroidNode>;

/// The simulation slice of an EngineConfig as ShardEngineOptions (the
/// exchange-pacing knobs keep their defaults; set them afterwards).
[[nodiscard]] inline ShardEngineOptions shard_options(
    const sim::EngineConfig& config) {
  ShardEngineOptions options;
  static_cast<sim::RoundRunnerOptions&>(options) = config.round_options();
  return options;
}

/// One shard of a GM cluster over `transport` (peer ids = shard ids;
/// null only when num_shards == 1). The simulation slice of the options
/// comes from `config`, every exchange and partitioning knob from
/// `options_override`.
[[nodiscard]] inline GmShardEngine make_gm_shard_engine(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const sim::EngineConfig& config, ShardId shard_id, ShardId num_shards,
    net::Transport* transport, ShardEngineOptions options_override = {},
    const em::ReductionOptions& reduction = {}) {
  DDC_EXPECTS(inputs.size() == topology.num_nodes());
  const ShardMap map =
      ShardMap::make(options_override.partitioner, topology, num_shards);
  ShardEngineOptions options = options_override;
  static_cast<sim::RoundRunnerOptions&>(options) = config.round_options();
  return GmShardEngine(
      std::move(topology), map, shard_id,
      gossip::make_gm_nodes(inputs, gossip::network_config(config), reduction,
                            map.owned(shard_id)),
      transport, std::move(options));
}

/// One shard of a centroid cluster (see make_gm_shard_engine).
[[nodiscard]] inline CentroidShardEngine make_centroid_shard_engine(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const sim::EngineConfig& config, ShardId shard_id, ShardId num_shards,
    net::Transport* transport, ShardEngineOptions options_override = {}) {
  DDC_EXPECTS(inputs.size() == topology.num_nodes());
  const ShardMap map =
      ShardMap::make(options_override.partitioner, topology, num_shards);
  ShardEngineOptions options = options_override;
  static_cast<sim::RoundRunnerOptions&>(options) = config.round_options();
  return CentroidShardEngine(
      std::move(topology), map, shard_id,
      gossip::make_centroid_nodes(inputs, gossip::network_config(config),
                                  map.owned(shard_id)),
      transport, std::move(options));
}

/// A whole in-process GM cluster over a loopback fabric.
[[nodiscard]] inline GmShardCluster make_gm_shard_cluster(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const sim::EngineConfig& config, ShardId num_shards,
    net::LoopbackOptions net_options = {},
    const em::ReductionOptions& reduction = {},
    Partitioner partitioner = Partitioner::contiguous) {
  ShardEngineOptions options = shard_options(config);
  options.partitioner = partitioner;
  return GmShardCluster(
      std::move(topology),
      gossip::make_gm_nodes(inputs, gossip::network_config(config), reduction),
      num_shards, std::move(options), net_options);
}

/// A whole in-process centroid cluster over a loopback fabric.
[[nodiscard]] inline CentroidShardCluster make_centroid_shard_cluster(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const sim::EngineConfig& config, ShardId num_shards,
    net::LoopbackOptions net_options = {},
    Partitioner partitioner = Partitioner::contiguous) {
  ShardEngineOptions options = shard_options(config);
  options.partitioner = partitioner;
  return CentroidShardCluster(
      std::move(topology),
      gossip::make_centroid_nodes(inputs, gossip::network_config(config)),
      num_shards, std::move(options), net_options);
}

}  // namespace ddc::shard
