// Synchronous round-based simulation driver.
//
// Reproduces the paper's measurement methodology (Section 5.3): "we
// measure progress in rounds, where in each round each node sends a
// classification to one neighbor. Nodes that receive classifications from
// multiple neighbors accumulate all the received collections and run EM
// once for the entire set." Crash failures follow Figure 4's model: after
// each round every live node crashes independently with fixed probability.
//
// Execution model — a round is five phases:
//   1. plan     (sequential)  environment draws: neighbor selection
//   2. prepare  (parallel)    every sender/responder splits its state
//   3. deliver  (sequential)  traces, loss draws, inbox fill, in node order
//   4. absorb   (parallel)    every receiver unions its inbox, runs EM once
//   5. crash    (sequential)  end-of-round crash draws
//
// Phases 2 and 4 touch only node-local state (each node's classifier and
// its own RNG stream), so they fan out across a thread pool when
// `RoundRunnerOptions::parallelism > 1` — with results BIT-IDENTICAL to
// `parallelism = 1`, because which thread runs a node never changes what
// that node computes, and every environment draw stays on the sequential
// phases. See DESIGN.md ("Parallel simulation engine") for the argument.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/exec/parallel_for.hpp>
#include <ddc/exec/thread_pool.hpp>
#include <ddc/sim/gossip_node.hpp>
#include <ddc/sim/neighbor_selection.hpp>
#include <ddc/sim/topology.hpp>
#include <ddc/sim/trace.hpp>
#include <ddc/stats/rng.hpp>

namespace ddc::sim {

// CrashSendPolicy moved to gossip_node.hpp (the shared options
// vocabulary) so EngineConfig's fault model can name it without pulling
// in a whole engine header; it remains ddc::sim::CrashSendPolicy.

/// Configuration of a round-based run. Selection, pattern and seed come
/// from the shared options layer (CommonRunnerOptions).
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

/// Accumulated wall-clock of the two parallel phases, measured once per
/// round around the whole phase (two clock reads each — negligible next
/// to the phase bodies). Feeds `ddcsim --timing`.
struct RoundPhaseTimings {
  double prepare_seconds = 0.0;
  double absorb_seconds = 0.0;
};

/// Drives one node object per topology vertex through synchronous gossip
/// rounds. The runner owns the nodes; experiments inspect them between
/// rounds through `nodes()`.
template <GossipNode Node>
class RoundRunner {
 public:
  using Message = typename Node::Message;

  /// Takes ownership of `nodes` (one per topology vertex).
  RoundRunner(Topology topology, std::vector<Node> nodes,
              RoundRunnerOptions options = {})
      : topology_(std::move(topology)),
        nodes_(std::move(nodes)),
        options_(options),
        env_rng_(stats::Rng::derive(options.seed, 0x524e445255ULL)),
        loss_rng_(stats::Rng::derive(options.seed, 0x4c4f5353ULL)),
        alive_(nodes_.size(), true),
        selector_(options.selection, nodes_.size()),
        targets_(nodes_.size()),
        outbox_(nodes_.size()),
        replies_(nodes_.size()),
        reply_requests_(nodes_.size()),
        inbox_(nodes_.size()) {
    DDC_EXPECTS(nodes_.size() == topology_.num_nodes());
    DDC_EXPECTS(options_.crash_probability >= 0.0 &&
                options_.crash_probability <= 1.0);
    DDC_EXPECTS(options_.message_loss_probability >= 0.0 &&
                options_.message_loss_probability <= 1.0);
    const std::size_t threads = options_.parallelism == 0
                                    ? exec::ThreadPool::hardware_threads()
                                    : options_.parallelism;
    if (threads > 1) {
      // The calling thread participates in parallel_for, so a pool of
      // threads-1 workers yields `threads` concurrent lanes.
      pool_ = std::make_unique<exec::ThreadPool>(threads - 1);
    }
  }

  /// Executes one round: every live node contacts one neighbor (push,
  /// pull, or push-pull); every live node then absorbs everything it
  /// received in a single batch; finally crash draws are applied.
  void run_round() {
    plan_targets();
    // Audited timing probes: the clock reads feed only the phase
    // counters reported by `ddcsim --timing`, never control flow, so
    // the round's outcome stays a pure function of (options, seed).
    const auto t_prepare = std::chrono::steady_clock::now();  // ddcverify: allow(wall-clock)
    prepare_messages();
    const auto t_deliver = std::chrono::steady_clock::now();  // ddcverify: allow(wall-clock)
    timings_.prepare_seconds +=
        std::chrono::duration<double>(t_deliver - t_prepare).count();
    deliver_messages();
    const auto t_absorb = std::chrono::steady_clock::now();  // ddcverify: allow(wall-clock)
    absorb_inboxes();
    timings_.absorb_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -  // ddcverify: allow(wall-clock)
                                      t_absorb)
            .count();
    apply_crashes();
    ++round_;
  }

  /// Executes `count` rounds.
  void run_rounds(std::size_t count) {
    for (std::size_t r = 0; r < count; ++r) run_round();
  }

  [[nodiscard]] std::size_t round() const noexcept { return round_; }
  [[nodiscard]] const RoundPhaseTimings& timings() const noexcept {
    return timings_;
  }
  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] const std::vector<Node>& nodes() const noexcept { return nodes_; }
  [[nodiscard]] std::vector<Node>& nodes() noexcept { return nodes_; }

  /// Attaches (or detaches, with nullptr) an execution trace recorder.
  /// The recorder is borrowed and must outlive the runs it observes.
  void set_trace(TraceRecorder* recorder) noexcept { trace_ = recorder; }

  [[nodiscard]] bool alive(NodeId i) const {
    DDC_EXPECTS(i < alive_.size());
    return alive_[i];
  }
  [[nodiscard]] std::size_t alive_count() const noexcept {
    std::size_t count = 0;
    for (const bool a : alive_) count += a ? 1 : 0;
    return count;
  }

 private:
  [[nodiscard]] bool sends_data() const noexcept {
    return options_.pattern != GossipPattern::pull;
  }
  [[nodiscard]] bool wants_reply() const noexcept {
    return options_.pattern != GossipPattern::push;
  }

  /// Phase 1 — environment draws only. Picks every live node's gossip
  /// target and, for patterns with a pull component, records who owes
  /// whom a reply. Consumes exactly the selection draws, in node order,
  /// regardless of message contents or thread count.
  void plan_targets() {
    const bool replies = wants_reply();
    for (NodeId i = 0; i < nodes_.size(); ++i) {
      targets_[i].reset();
      if (replies) reply_requests_[i].clear();
    }
    for (NodeId i = 0; i < nodes_.size(); ++i) {
      if (!alive_[i]) continue;
      targets_[i] = select_neighbor(i);
      if (replies && targets_[i] && alive_[*targets_[i]]) {
        // A crashed contact cannot answer (reachable only under
        // drop_at_crashed); the request simply vanishes.
        reply_requests_[*targets_[i]].push_back(i);
      }
    }
  }

  /// Phase 2 — node-local splits, parallel over nodes. Each node performs
  /// ITS OWN prepare_message calls in the order the sequential engine
  /// would have reached them (ascending initiator index, its own send
  /// between the requests from lower- and higher-indexed initiators), so
  /// the node's state evolution — and hence every produced message — is
  /// independent of scheduling.
  void prepare_messages() {
    const bool sends = sends_data();
    const bool replies = wants_reply();
    for (NodeId i = 0; i < nodes_.size(); ++i) {
      outbox_[i].reset();
      replies_[i].reset();
    }
    exec::parallel_for(pool_.get(), nodes_.size(), [&](std::size_t j) {
      if (replies) {
        const std::vector<NodeId>& requests = reply_requests_[j];
        std::size_t r = 0;
        for (; r < requests.size() && requests[r] < j; ++r) {
          replies_[requests[r]] = nodes_[j].prepare_message();
        }
        if (sends && targets_[j]) outbox_[j] = nodes_[j].prepare_message();
        for (; r < requests.size(); ++r) {
          replies_[requests[r]] = nodes_[j].prepare_message();
        }
      } else if (targets_[j]) {
        outbox_[j] = nodes_[j].prepare_message();
      }
    });
  }

  /// Phase 3 — the wire, sequential in node order: trace events, loss
  /// draws and inbox fills happen exactly as the sequential engine
  /// interleaves them.
  void deliver_messages() {
    const bool sends = sends_data();
    const bool replies = wants_reply();
    for (NodeId i = 0; i < nodes_.size(); ++i) inbox_[i].clear();
    for (NodeId i = 0; i < nodes_.size(); ++i) {
      if (!alive_[i]) continue;
      if (!targets_[i]) {
        trace(TraceEventType::no_live_neighbor, i, i, 0);
        continue;  // no eligible neighbor left
      }
      const NodeId target = *targets_[i];
      if (sends && outbox_[i] && !outbox_[i]->empty()) {
        transmit(i, target, std::move(*outbox_[i]));
      }
      if (replies && replies_[i] && !replies_[i]->empty()) {
        // The contacted neighbor answers with half of its own state.
        transmit(target, i, std::move(*replies_[i]));
      }
    }
  }

  /// Phase 4 — node-local batch absorption, parallel over nodes (the
  /// per-receiver EM run is the round's dominant cost).
  void absorb_inboxes() {
    exec::parallel_for(pool_.get(), nodes_.size(), [&](std::size_t i) {
      if (alive_[i] && !inbox_[i].empty()) {
        nodes_[i].absorb(std::move(inbox_[i]));
      }
    });
  }

  /// Phase 5 — end-of-round crash draws, sequential.
  void apply_crashes() {
    if (options_.crash_probability <= 0.0) return;
    for (NodeId i = 0; i < nodes_.size(); ++i) {
      if (alive_[i] && env_rng_.bernoulli(options_.crash_probability)) {
        alive_[i] = false;
        trace(TraceEventType::crash, i, i, 0);
      }
    }
  }

  /// One loss draw per message (only when losses are configured, to keep
  /// loss-free executions' randomness untouched).
  [[nodiscard]] bool channel_drops() {
    return options_.message_loss_probability > 0.0 &&
           loss_rng_.bernoulli(options_.message_loss_probability);
  }

  /// Payload size proxy: collections for classification messages, 1 for
  /// scalar protocols like push-sum.
  [[nodiscard]] static std::size_t payload_units(const Message& msg) {
    if constexpr (requires { msg.size(); }) {
      return msg.size();
    } else {
      return 1;
    }
  }

  void trace(TraceEventType type, NodeId from, NodeId to, std::size_t payload) {
    if (trace_ != nullptr) trace_->record({round_, type, from, to, payload});
  }

  /// Puts one message on the wire: records the send, then either loses it,
  /// drops it at a dead target, or queues it for delivery.
  void transmit(NodeId from, NodeId to, Message msg) {
    const std::size_t payload = payload_units(msg);
    trace(TraceEventType::send, from, to, payload);
    if (!alive_[to]) {
      // Reachable only under drop_at_crashed: a packet to a dead mote.
      trace(TraceEventType::dead_target, from, to, payload);
      return;
    }
    if (channel_drops()) {
      trace(TraceEventType::loss, from, to, payload);
      return;
    }
    trace(TraceEventType::deliver, from, to, payload);
    inbox_[to].push_back(std::move(msg));
  }

  /// Picks i's gossip target, honouring the crash-send policy. Returns
  /// nullopt when every eligible neighbor is dead.
  [[nodiscard]] std::optional<NodeId> select_neighbor(NodeId i) {
    const bool avoid =
        options_.crash_send_policy == CrashSendPolicy::avoid_crashed;
    return selector_.pick(topology_, i, alive_, avoid, env_rng_);
  }

  Topology topology_;
  std::vector<Node> nodes_;
  RoundRunnerOptions options_;
  stats::Rng env_rng_;
  stats::Rng loss_rng_;
  std::vector<bool> alive_;
  NeighborSelector selector_;
  // Per-round scratch, kept across rounds to avoid reallocating. All of it
  // is written either sequentially or at disjoint indices (phase 2 writes
  // outbox_[j] / replies_[i] from the single task that owns the involved
  // node; phase 4 consumes inbox_[i] from the task that owns i).
  std::vector<std::optional<NodeId>> targets_;
  std::vector<std::optional<Message>> outbox_;
  std::vector<std::optional<Message>> replies_;
  std::vector<std::vector<NodeId>> reply_requests_;
  std::vector<std::vector<Message>> inbox_;
  std::unique_ptr<exec::ThreadPool> pool_;
  std::size_t round_ = 0;
  RoundPhaseTimings timings_;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace ddc::sim
