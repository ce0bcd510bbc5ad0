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
#include <ddc/net/codec.hpp>
#include <ddc/net/transport.hpp>
#include <ddc/shard/cluster.hpp>
#include <ddc/shard/shard_engine.hpp>
#include <ddc/shard/shard_map.hpp>
#include <ddc/sim/engine_config.hpp>

namespace ddc::shard {

using GmCodec = net::ClassificationCodec<stats::Gaussian>;
using CentroidCodec = net::ClassificationCodec<linalg::Vector>;
using GmShardEngine = ShardEngine<gossip::GmNode, GmCodec>;
using CentroidShardEngine = ShardEngine<gossip::CentroidNode, CentroidCodec>;
using GmShardCluster = ShardCluster<gossip::GmNode, GmCodec>;
using CentroidShardCluster = ShardCluster<gossip::CentroidNode, CentroidCodec>;

/// The simulation slice of an EngineConfig as ShardEngineOptions (the
/// exchange-pacing knobs keep their defaults; set them afterwards).
[[nodiscard]] inline ShardEngineOptions shard_options(
    const sim::EngineConfig& config) {
  ShardEngineOptions options;
  static_cast<sim::RoundRunnerOptions&>(options) = config.round_options();
  return options;
}

/// Exchange-pacing and partitioning knobs an engine factory copies out
/// of the caller's options_override (the simulation slice always comes
/// from the EngineConfig).
[[nodiscard]] inline ShardEngineOptions merge_exchange_options(
    const sim::EngineConfig& config,
    const ShardEngineOptions& options_override) {
  ShardEngineOptions options = shard_options(config);
  options.resend_interval_polls = options_override.resend_interval_polls;
  options.max_exchange_polls = options_override.max_exchange_polls;
  options.idle = options_override.idle;
  options.partitioner = options_override.partitioner;
  options.overlap_chunk = options_override.overlap_chunk;
  options.testing_suppress_empty_barrier_retransmit =
      options_override.testing_suppress_empty_barrier_retransmit;
  return options;
}

/// One shard of a GM cluster over `transport` (peer ids = shard ids;
/// null only when num_shards == 1).
[[nodiscard]] inline GmShardEngine make_gm_shard_engine(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const sim::EngineConfig& config, ShardId shard_id, ShardId num_shards,
    net::Transport* transport, ShardEngineOptions options_override = {},
    const em::ReductionOptions& reduction = {}) {
  DDC_EXPECTS(inputs.size() == topology.num_nodes());
  const ShardMap map =
      ShardMap::make(options_override.partitioner, topology, num_shards);
  ShardEngineOptions options = merge_exchange_options(config, options_override);
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
  ShardEngineOptions options = merge_exchange_options(config, options_override);
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
