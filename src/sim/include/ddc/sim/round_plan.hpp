// The round environment of the paper's synchronous model, shared by the
// three lockstep engines (RoundRunner, SoaRoundEngine, shard::ShardEngine).
//
// Section 5.3 measures progress in rounds: in each round every live node
// contacts one neighbor. Figure 4's failure model then crashes every live
// node independently with a fixed probability. RoundPlan is that policy,
// written once. It owns everything the policy draws or remembers:
//
//   * the global alive vector;
//   * the NeighborSelector (round-robin cursors);
//   * the environment stream Rng::derive(seed, "RNDRU"), consumed by the
//     selection draws in plan() and the crash draws in crash();
//   * the round's plan: each node's target and, for patterns with a pull
//     component, the reply requests (who owes whom a reply) as a CSR over
//     responders, ascending by initiator within each responder.
//
// The plan is a pure function of (topology, options, rounds so far), so a
// ShardEngine on every shard replays it for all n nodes and every replica
// stays in lockstep without communicating. Channel loss is deliberately
// NOT here: RoundRunner and SoaRoundEngine draw it from a sequential
// stream, ShardEngine from a stateless per-message hash (see
// shard_engine.hpp), and lossy digests pin both.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/sim/gossip_node.hpp>
#include <ddc/sim/neighbor_selection.hpp>
#include <ddc/sim/topology.hpp>
#include <ddc/stats/rng.hpp>

namespace ddc::sim {

/// Configuration of a lockstep round run, shared by RoundRunner,
/// SoaRoundEngine and shard::ShardEngine. Selection, pattern and seed
/// come from the shared options layer (CommonRunnerOptions).
struct RoundRunnerOptions : CommonRunnerOptions {
  /// Per-node probability of crashing at the end of each round (Fig. 4
  /// uses 0.05; 0 disables crashes).
  double crash_probability = 0.0;
  CrashSendPolicy crash_send_policy = CrashSendPolicy::avoid_crashed;
  /// Probability that any individual message is silently lost in the
  /// channel. The paper's model assumes RELIABLE links (Section 3.1) — a
  /// nonzero value deliberately violates that assumption so its role can
  /// be studied (bench/abl_channel_reliability): lost messages destroy
  /// weight, which the protocol never recovers. Loss draws come from a
  /// stream derived independently of the selection/crash stream, so
  /// turning losses on does not reshuffle anyone's neighbor choices.
  double message_loss_probability = 0.0;
  /// Worker threads for the prepare/absorb phases: 1 runs fully
  /// sequentially (no pool is even created), 0 means one per hardware
  /// thread. Any value produces bit-identical results.
  std::size_t parallelism = 1;
};

/// One engine's copy of the round environment (see the file comment).
/// plan() and crash() run in the sequential phases; the accessors are
/// safe to read from the parallel ones.
class RoundPlan {
 public:
  /// Environment of `num_nodes` nodes, all alive. Reads the selection,
  /// pattern, seed and crash fields of `options`.
  RoundPlan(std::size_t num_nodes, const RoundRunnerOptions& options);

  /// Phase 1 — environment draws only. Picks every live node's target in
  /// node order and lowers the reply requests into the CSR. Consumes
  /// exactly the selection draws, regardless of message contents.
  void plan(const Topology& topology);

  /// Phase 5 — end-of-round crash draws over all nodes, in node order.
  /// Returns the nodes that crashed this round, ascending; the span is
  /// valid until the next crash().
  std::span<const NodeId> crash();

  /// Node i's contact this round; nullopt when i is dead or every
  /// eligible neighbor is.
  [[nodiscard]] std::optional<NodeId> target(NodeId i) const {
    const NodeId t = targets_[i];
    if (t == kNoTarget) return std::nullopt;
    return t;
  }

  /// The live initiators that contacted live node j and want a reply,
  /// ascending. Always empty under the push pattern.
  [[nodiscard]] std::span<const NodeId> requesters(NodeId j) const {
    return std::span<const NodeId>(req_initiators_)
        .subspan(req_offsets_[j], req_offsets_[j + 1] - req_offsets_[j]);
  }

  [[nodiscard]] bool alive(NodeId i) const {
    DDC_EXPECTS(i < n_);
    return alive_[i];
  }
  [[nodiscard]] std::size_t alive_count() const noexcept {
    return alive_count_;
  }

  /// The gossip pattern's two directions: initiators ship half their
  /// state (push, push-pull); contacts answer with half of theirs (pull,
  /// push-pull).
  [[nodiscard]] bool sends_data() const noexcept {
    return pattern_ != GossipPattern::pull;
  }
  [[nodiscard]] bool wants_reply() const noexcept {
    return pattern_ != GossipPattern::push;
  }

 private:
  static constexpr NodeId kNoTarget = static_cast<NodeId>(-1);

  std::size_t n_;
  GossipPattern pattern_;
  double crash_probability_;
  bool avoid_crashed_;
  stats::Rng env_rng_;
  std::vector<bool> alive_;
  std::size_t alive_count_;
  NeighborSelector selector_;

  // The round's plan (sequential writes, parallel reads).
  std::vector<NodeId> targets_;
  std::vector<std::size_t> req_counts_;
  std::vector<std::size_t> req_offsets_;
  std::vector<NodeId> req_initiators_;
  std::vector<NodeId> crashed_;
};

}  // namespace ddc::sim
