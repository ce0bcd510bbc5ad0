// Factory helpers that assemble a ready-to-run simulation in one call.
//
// Before these existed every tool, example and bench hand-rolled the same
// three lines — build a node vector, build a topology, marry them in a
// runner — with the node-construction loop copy-pasted per protocol.
// The factories bundle that assembly:
//
//   auto runner = ddc::gossip::make_gm_round_runner(
//       ddc::sim::Topology::complete(n), inputs, net, options);
//
// They live in ddc::gossip because they construct gossip protocol nodes
// (the sim library cannot depend on gossip), but are re-exported into
// ddc::sim — the namespace callers already have open for Topology and the
// option structs — so `sim::make_gm_round_runner(...)` works too.
#pragma once

#include <utility>
#include <vector>

#include <ddc/em/mixture_reduction.hpp>
#include <ddc/gossip/classifier_node.hpp>
#include <ddc/gossip/dkmeans.hpp>
#include <ddc/gossip/network.hpp>
#include <ddc/gossip/scale.hpp>
#include <ddc/linalg/vector.hpp>
#include <ddc/sim/async_runner.hpp>
#include <ddc/sim/engine_config.hpp>
#include <ddc/sim/round_runner.hpp>

namespace ddc::gossip {

/// The protocol-layer slice of an EngineConfig (the classifier nodes'
/// NetworkConfig). Every EngineConfig-taking factory goes through this,
/// so the protocol/environment seed split is decided in exactly one
/// place.
[[nodiscard]] inline NetworkConfig network_config(
    const sim::EngineConfig& config) {
  NetworkConfig net;
  net.k = config.k;
  net.quanta_per_unit = config.quanta_per_unit;
  net.seed = config.protocol_seed;
  return net;
}

/// Round-based GM network (the paper's Section 5 instantiation): one node
/// per input, EM partitioning with per-node derived RNG streams.
[[nodiscard]] inline sim::RoundRunner<GmNode> make_gm_round_runner(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const NetworkConfig& net = {}, const sim::RoundRunnerOptions& options = {},
    const em::ReductionOptions& reduction = {}) {
  return sim::RoundRunner<GmNode>(std::move(topology),
                                  make_gm_nodes(inputs, net, reduction),
                                  options);
}

/// Round-based centroid network (the paper's Algorithm 2).
[[nodiscard]] inline sim::RoundRunner<CentroidNode> make_centroid_round_runner(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const NetworkConfig& net = {},
    const sim::RoundRunnerOptions& options = {}) {
  return sim::RoundRunner<CentroidNode>(std::move(topology),
                                        make_centroid_nodes(inputs, net),
                                        options);
}

/// Round-based push-sum network (the plain average-aggregation baseline).
[[nodiscard]] inline sim::RoundRunner<PushSumNode> make_push_sum_round_runner(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const sim::RoundRunnerOptions& options = {}) {
  return sim::RoundRunner<PushSumNode>(std::move(topology),
                                       make_push_sum_nodes(inputs), options);
}

/// Round-based distributed k-means network (the Section 2 comparator).
/// All nodes share `initial_centroids`, as the algorithm requires.
[[nodiscard]] inline sim::RoundRunner<DistributedKMeansNode>
make_dkmeans_round_runner(sim::Topology topology,
                          const std::vector<linalg::Vector>& inputs,
                          const std::vector<linalg::Vector>& initial_centroids,
                          std::size_t rounds_per_iteration,
                          const sim::RoundRunnerOptions& options = {}) {
  std::vector<DistributedKMeansNode> nodes;
  nodes.reserve(inputs.size());
  for (const linalg::Vector& input : inputs) {
    nodes.emplace_back(input, initial_centroids, rounds_per_iteration);
  }
  return sim::RoundRunner<DistributedKMeansNode>(std::move(topology),
                                                 std::move(nodes), options);
}

/// Asynchronous (event-driven) GM network. Relies on guaranteed copy
/// elision — AsyncRunner is neither copyable nor movable, so bind the
/// result directly: `auto runner = make_gm_async_runner(...)`.
[[nodiscard]] inline sim::AsyncRunner<GmNode> make_gm_async_runner(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const NetworkConfig& net = {}, const sim::AsyncRunnerOptions& options = {},
    const em::ReductionOptions& reduction = {}) {
  return sim::AsyncRunner<GmNode>(std::move(topology),
                                  make_gm_nodes(inputs, net, reduction),
                                  options);
}

/// Asynchronous centroid network (see make_gm_async_runner on binding).
[[nodiscard]] inline sim::AsyncRunner<CentroidNode> make_centroid_async_runner(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const NetworkConfig& net = {},
    const sim::AsyncRunnerOptions& options = {}) {
  return sim::AsyncRunner<CentroidNode>(std::move(topology),
                                        make_centroid_nodes(inputs, net),
                                        options);
}

// ---------------------------------------------------------------------------
// EngineConfig overloads — the factories re-expressed on the unified
// configuration object. One EngineConfig carries what used to be four
// loose pieces (NetworkConfig, runner options, topology parameters,
// fault model); these overloads slice it for the round runners and the
// scale engine (the async runners take NetworkConfig and
// AsyncRunnerOptions). `config.validate()` is the caller's
// responsibility (the CLI layer validates at parse time).
// ---------------------------------------------------------------------------

[[nodiscard]] inline sim::RoundRunner<GmNode> make_gm_round_runner(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const sim::EngineConfig& config,
    const em::ReductionOptions& reduction = {}) {
  return make_gm_round_runner(std::move(topology), inputs,
                              network_config(config), config.round_options(),
                              reduction);
}

[[nodiscard]] inline sim::RoundRunner<CentroidNode> make_centroid_round_runner(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const sim::EngineConfig& config) {
  return make_centroid_round_runner(std::move(topology), inputs,
                                    network_config(config),
                                    config.round_options());
}

[[nodiscard]] inline sim::RoundRunner<PushSumNode> make_push_sum_round_runner(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const sim::EngineConfig& config) {
  return make_push_sum_round_runner(std::move(topology), inputs,
                                    config.round_options());
}

[[nodiscard]] inline sim::SoaRoundEngine<GmScaleProtocol> make_gm_scale_engine(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const sim::EngineConfig& config,
    const em::ReductionOptions& reduction = {}) {
  return make_gm_scale_engine(std::move(topology), inputs,
                              network_config(config), config.round_options(),
                              reduction);
}

[[nodiscard]] inline sim::SoaRoundEngine<CentroidScaleProtocol>
make_centroid_scale_engine(sim::Topology topology,
                           const std::vector<linalg::Vector>& inputs,
                           const sim::EngineConfig& config) {
  return make_centroid_scale_engine(std::move(topology), inputs,
                                    network_config(config),
                                    config.round_options());
}

}  // namespace ddc::gossip

namespace ddc::sim {
// Re-exports: the factory names read naturally next to Topology and the
// runner option structs, which callers qualify with sim:: already.
using gossip::make_centroid_async_runner;
using gossip::make_centroid_round_runner;
using gossip::make_dkmeans_round_runner;
using gossip::make_gm_async_runner;
using gossip::make_gm_round_runner;
using gossip::make_push_sum_round_runner;
}  // namespace ddc::sim
