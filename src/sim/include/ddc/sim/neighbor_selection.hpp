// Fair gossip-target selection, shared by the simulation runners and the
// networked node driver (src/net).
//
// Both selection policies satisfy the paper's fairness requirement (each
// neighbor chosen infinitely often): round-robin deterministically,
// uniform-random with probability 1. The selector owns the per-node
// round-robin cursors; random draws come from the caller's environment
// RNG so the engine keeps control of its draw ordering.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/sim/gossip_node.hpp>
#include <ddc/sim/topology.hpp>
#include <ddc/stats/rng.hpp>

namespace ddc::sim {

/// Picks gossip targets for the nodes of one topology. Stateful only for
/// round-robin (one cursor per node). Every call reads or writes node i's
/// state alone, so distinct nodes may be served from distinct threads;
/// the uniform draws are the caller's to order.
class NeighborSelector {
 public:
  NeighborSelector(NeighborSelection selection, std::size_t num_nodes)
      : selection_(selection), rr_position_(num_nodes, 0) {}

  [[nodiscard]] NeighborSelection selection() const noexcept {
    return selection_;
  }

  /// Picks node i's gossip target among its out-neighbors. When `avoid`
  /// is set, dead neighbors (per `alive`) are skipped; returns nullopt
  /// when every eligible neighbor is dead. Draws from `rng` only for
  /// uniform_random selection — round-robin consumes no randomness.
  // ddcverify: hotpath
  [[nodiscard]] std::optional<NodeId> pick(const Topology& topology, NodeId i,
                                           const std::vector<bool>& alive,
                                           bool avoid, stats::Rng& rng) {
    if (selection_ == NeighborSelection::round_robin) {
      return next_round_robin(topology, i, alive, avoid);
    }
    const std::size_t count = eligible_count(topology, i, alive, avoid);
    if (count == 0) return std::nullopt;
    return eligible_at(topology, i, alive, avoid, rng.uniform_index(count));
  }

  /// Uniform-random: how many of node i's neighbors are eligible — all
  /// of them, or the live ones when `avoid` is set. A uniform pick draws
  /// uniform_index(count) and resolves it with eligible_at.
  // ddcverify: hotpath
  [[nodiscard]] static std::size_t eligible_count(
      const Topology& topology, NodeId i, const std::vector<bool>& alive,
      bool avoid) {
    const std::span<const NodeId> nbrs = topology.neighbors(i);
    DDC_ASSERT(!nbrs.empty());
    if (!avoid) return nbrs.size();
    std::size_t count = 0;
    for (const NodeId t : nbrs) count += alive[t] ? 1 : 0;
    return count;
  }

  /// Node i's eligible neighbor number `index` (< eligible_count), in
  /// neighbor order.
  // ddcverify: hotpath
  [[nodiscard]] static NodeId eligible_at(const Topology& topology, NodeId i,
                                          const std::vector<bool>& alive,
                                          bool avoid, std::size_t index) {
    const std::span<const NodeId> nbrs = topology.neighbors(i);
    if (!avoid) return nbrs[index];
    for (const NodeId t : nbrs) {
      if (alive[t] && index-- == 0) return t;
    }
    DDC_ASSERT(false);
    return nbrs.front();
  }

 private:
  /// Round-robin: node i's next neighbor, advancing its cursor past dead
  /// ones (at most one lap) when `avoid` is set.
  // ddcverify: hotpath
  [[nodiscard]] std::optional<NodeId> next_round_robin(
      const Topology& topology, NodeId i, const std::vector<bool>& alive,
      bool avoid) {
    const std::span<const NodeId> nbrs = topology.neighbors(i);
    DDC_ASSERT(!nbrs.empty());
    for (std::size_t step = 0; step < nbrs.size(); ++step) {
      const NodeId target = nbrs[rr_position_[i] % nbrs.size()];
      rr_position_[i] = (rr_position_[i] + 1) % nbrs.size();
      if (!avoid || alive[target]) return target;
    }
    return std::nullopt;
  }

  NeighborSelection selection_;
  std::vector<std::size_t> rr_position_;
};

}  // namespace ddc::sim
