// The round environment of the paper's synchronous model, shared by the
// three lockstep engines (RoundRunner, SoaRoundEngine, shard::ShardEngine).
//
// Section 5.3 measures progress in rounds: in each round every live node
// contacts one neighbor, and every receiver unions all it got and
// partitions once. Figure 4's failure model then crashes every live node
// independently with a fixed probability. RoundPlan is that policy,
// written once. It owns everything the policy draws or remembers:
//
//   * the global alive vector;
//   * the NeighborSelector (round-robin cursors);
//   * the environment stream Rng::derive(seed, "RNDRU"), consumed by the
//     selection draws in plan() and the crash draws in crash();
//   * the round's plan: each node's target and the MESSAGE TABLE that
//     follows from it — one row per planned message, in the monolithic
//     delivery order — with views giving each node's split order
//     (outgoing), each receiver's absorb order (incoming) and each
//     initiator's rows (row).
//
// Who splits how often, what goes on the wire in which order and what
// each receiver absorbs is therefore decided here once; the engines
// differ only in storage, loss verdict and exchange.
//
// plan() runs on the engine's lanes and is bit-identical at any lane
// count, because only the draws need an order. A uniform pick takes
// three passes, and just the middle one touches the stream:
//
//   1. count each live node's eligible neighbors (parallel; skipped
//      while every node is alive, when the count is the degree);
//   2. draw uniform_index(count) for each node, in node order
//      (sequential; the only pass that consumes the environment stream);
//   3. resolve each draw to a neighbor id (parallel).
//
// Round-robin draws nothing and picks in one parallel pass; without a
// pool, the same passes run in order on the calling thread. The message
// table is built in parallel too: rows by per-block counts and a prefix
// sum, one view by a two-step stable counting sort in which no two
// lanes share a counter (see sort_view), and the other as the row table
// itself or derived from the sorted one (see build_messages).
//
// The plan is a pure function of (topology, options, rounds so far), so a
// ShardEngine on every shard replays it for all n nodes and every replica
// stays in lockstep without communicating. Channel loss is deliberately
// NOT here: RoundRunner and SoaRoundEngine draw it from a sequential
// stream, ShardEngine from a stateless per-message hash (see
// shard_engine.hpp), and lossy digests pin both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/exec/thread_pool.hpp>
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
  /// Worker threads for the round's parallel phases: 1 runs fully
  /// sequentially (no pool is even created), 0 means one per hardware
  /// thread. Any value produces bit-identical results.
  std::size_t parallelism = 1;
};

/// The two directions of a planned message: the initiator's own send
/// (push, push-pull) and its contact's answer (pull, push-pull). The
/// values are the wire's BatchTag values.
enum class MessageKind : std::uint8_t { forward = 0, reply = 1 };

/// One row of the round's message table.
struct PlannedMessage {
  NodeId from;
  NodeId to;
  MessageKind kind;

  /// The node whose contact the message belongs to: the sender of a
  /// forward, the receiver of a reply.
  [[nodiscard]] NodeId initiator() const noexcept {
    return kind == MessageKind::forward ? from : to;
  }
};

/// One engine's copy of the round environment (see the file comment).
/// plan() and crash() run between the engine's parallel phases; the
/// accessors are safe to read from them.
class RoundPlan {
 public:
  /// Environment of `num_nodes` nodes, all alive. Reads the selection,
  /// pattern, seed and crash fields of `options`.
  RoundPlan(std::size_t num_nodes, const RoundRunnerOptions& options);

  /// Phase 1 — environment draws only. Picks every live node's target,
  /// then builds the round's message table, on `pool`'s lanes (null runs
  /// it on the calling thread). Consumes exactly the selection draws, in
  /// node order, regardless of message contents and lane count.
  void plan(const Topology& topology, exec::ThreadPool* pool = nullptr);

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

  /// The round's message table, in delivery order; a row id indexes it.
  /// Every live initiator with a target has a forward row under push and
  /// push-pull — even to a dead target under drop_at_crashed: the split
  /// happens and the message dies at transmit — and, under pull and
  /// push-pull, a reply row when its target is alive.
  [[nodiscard]] std::span<const PlannedMessage> messages() const noexcept {
    return std::span<const PlannedMessage>(rows_).first(num_rows_);
  }

  /// Node j's rows (the messages j sends), ascending by initiator: the
  /// order in which j splits its state (replies to lower initiators, its
  /// own send, replies to higher ones).
  [[nodiscard]] std::span<const std::size_t> outgoing(NodeId j) const {
    return view(out_offsets_, out_rows_, j);
  }

  /// The rows addressed to r, ascending by row id: the delivery order,
  /// in which r's inbox is unioned.
  [[nodiscard]] std::span<const std::size_t> incoming(NodeId r) const {
    return view(in_offsets_, in_rows_, r);
  }

  /// Initiator i's row of the given kind; nullopt when none is planned.
  [[nodiscard]] std::optional<std::size_t> row(NodeId initiator,
                                               MessageKind kind) const {
    DDC_EXPECTS(initiator < n_);
    for (std::size_t r = init_offsets_[initiator];
         r < init_offsets_[initiator + 1]; ++r) {
      if (rows_[r].kind == kind) return r;
    }
    return std::nullopt;
  }

  [[nodiscard]] bool alive(NodeId i) const {
    DDC_EXPECTS(i < n_);
    return alive_[i];
  }
  [[nodiscard]] std::size_t alive_count() const noexcept {
    return alive_count_;
  }

  /// The environment stream as it stands: replicas in lockstep hold
  /// equal streams.
  [[nodiscard]] const stats::Rng& environment_stream() const noexcept {
    return env_rng_;
  }

 private:
  static constexpr NodeId kNoTarget = static_cast<NodeId>(-1);

  [[nodiscard]] static std::span<const std::size_t> view(
      const std::vector<std::size_t>& offsets,
      const std::vector<std::size_t>& rows, NodeId key) {
    return std::span<const std::size_t>(rows).subspan(
        offsets[key], offsets[key + 1] - offsets[key]);
  }
  void pick_targets(const Topology& topology, exec::ThreadPool* pool);
  void build_messages(exec::ThreadPool* pool);
  void sort_view(exec::ThreadPool* pool, NodeId PlannedMessage::*group,
                 std::vector<std::size_t>& offsets,
                 std::vector<std::size_t>& view,
                 std::vector<std::size_t>& staging);
  void identity_view(exec::ThreadPool* pool, std::vector<std::size_t>& offsets,
                     std::vector<std::size_t>& view);
  void derive_outgoing(exec::ThreadPool* pool);

  /// Whether initiator i sends a forward this round (push, push-pull).
  [[nodiscard]] bool has_forward(NodeId i) const {
    return pattern_ != GossipPattern::pull && targets_[i] != kNoTarget;
  }
  /// Whether initiator i gets a reply this round (pull, push-pull). A
  /// crashed contact cannot answer (reachable only under
  /// drop_at_crashed); the request simply vanishes.
  [[nodiscard]] bool has_reply(NodeId i) const {
    return pattern_ != GossipPattern::push && targets_[i] != kNoTarget &&
           alive_[targets_[i]];
  }

  std::size_t n_;
  GossipPattern pattern_;
  double crash_probability_;
  bool avoid_crashed_;
  stats::Rng env_rng_;
  std::vector<bool> alive_;
  std::size_t alive_count_;
  NeighborSelector selector_;

  // The round's plan. Every buffer is sized in the constructor — at most
  // 2n rows, n+1 offsets per view, one sum per block — so plan() never
  // allocates.
  std::vector<NodeId> targets_;
  std::vector<PlannedMessage> rows_;
  std::size_t num_rows_ = 0;
  // Rows are appended by initiator, so the per-initiator view needs only
  // offsets: initiator i owns rows [init_offsets_[i], init_offsets_[i+1]).
  std::vector<std::size_t> init_offsets_;
  std::vector<std::size_t> out_offsets_;
  std::vector<std::size_t> out_rows_;
  std::vector<std::size_t> in_offsets_;
  std::vector<std::size_t> in_rows_;
  // plan()'s parallel passes cover the nodes in a fixed number of
  // contiguous blocks: block_rows_[b] is block b's first row, and
  // block_out_[b] its first outgoing entry when derive_outgoing runs.
  std::vector<std::size_t> block_rows_;
  std::vector<std::size_t> block_out_;
  // sort_view's buckets: group g lies in bucket g >> bucket_shift_, and
  // buckets_ holds one row count per (bucket, row block), bucket-major.
  std::size_t bucket_shift_;
  std::size_t num_buckets_;
  std::vector<std::size_t> buckets_;
  std::vector<NodeId> crashed_;
};

}  // namespace ddc::sim
