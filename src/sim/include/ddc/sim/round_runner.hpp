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
// Phases 1 and 5 are the round environment, which RoundPlan
// (round_plan.hpp) replays for all three lockstep engines.
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
#include <span>
#include <utility>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/exec/parallel_for.hpp>
#include <ddc/exec/thread_pool.hpp>
#include <ddc/sim/gossip_node.hpp>
#include <ddc/sim/round_plan.hpp>
#include <ddc/sim/topology.hpp>
#include <ddc/sim/trace.hpp>
#include <ddc/stats/rng.hpp>

namespace ddc::sim {

// RoundRunnerOptions is declared in round_plan.hpp: all three lockstep
// engines take it.

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
        plan_(nodes_.size(), options_),
        loss_rng_(stats::Rng::derive(options.seed, 0x4c4f5353ULL)),
        outbox_(nodes_.size()),
        replies_(nodes_.size()),
        inbox_(nodes_.size()),
        pool_(exec::make_lane_pool(options_.parallelism)) {
    DDC_EXPECTS(nodes_.size() == topology_.num_nodes());
    DDC_EXPECTS(options_.message_loss_probability >= 0.0 &&
                options_.message_loss_probability <= 1.0);
  }

  /// Executes one round: every live node contacts one neighbor (push,
  /// pull, or push-pull); every live node then absorbs everything it
  /// received in a single batch; finally crash draws are applied.
  void run_round() {
    plan_.plan(topology_);  // phase 1
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
    for (const NodeId i : plan_.crash()) {  // phase 5
      trace(TraceEventType::crash, i, i, 0);
    }
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

  [[nodiscard]] bool alive(NodeId i) const { return plan_.alive(i); }
  [[nodiscard]] std::size_t alive_count() const noexcept {
    return plan_.alive_count();
  }

 private:

  /// Phase 2 — node-local splits, parallel over nodes. Each node performs
  /// ITS OWN prepare_message calls in the order the sequential engine
  /// would have reached them (ascending initiator index, its own send
  /// between the requests from lower- and higher-indexed initiators), so
  /// the node's state evolution — and hence every produced message — is
  /// independent of scheduling.
  void prepare_messages() {
    const bool sends = plan_.sends_data();
    const bool replies = plan_.wants_reply();
    for (NodeId i = 0; i < nodes_.size(); ++i) {
      outbox_[i].reset();
      replies_[i].reset();
    }
    exec::parallel_for(pool_.get(), nodes_.size(), [&](std::size_t j) {
      const bool has_target = plan_.target(j).has_value();
      if (replies) {
        const std::span<const NodeId> requests = plan_.requesters(j);
        std::size_t r = 0;
        for (; r < requests.size() && requests[r] < j; ++r) {
          replies_[requests[r]] = nodes_[j].prepare_message();
        }
        if (sends && has_target) outbox_[j] = nodes_[j].prepare_message();
        for (; r < requests.size(); ++r) {
          replies_[requests[r]] = nodes_[j].prepare_message();
        }
      } else if (has_target) {
        outbox_[j] = nodes_[j].prepare_message();
      }
    });
  }

  /// Phase 3 — the wire, sequential in node order: trace events, loss
  /// draws and inbox fills happen exactly as the sequential engine
  /// interleaves them.
  void deliver_messages() {
    const bool sends = plan_.sends_data();
    const bool replies = plan_.wants_reply();
    for (NodeId i = 0; i < nodes_.size(); ++i) inbox_[i].clear();
    for (NodeId i = 0; i < nodes_.size(); ++i) {
      if (!plan_.alive(i)) continue;
      const std::optional<NodeId> planned = plan_.target(i);
      if (!planned) {
        trace(TraceEventType::no_live_neighbor, i, i, 0);
        continue;  // no eligible neighbor left
      }
      const NodeId target = *planned;
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
      if (plan_.alive(i) && !inbox_[i].empty()) {
        nodes_[i].absorb(std::move(inbox_[i]));
      }
    });
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
    if (!plan_.alive(to)) {
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

  Topology topology_;
  std::vector<Node> nodes_;
  RoundRunnerOptions options_;
  RoundPlan plan_;  // phases 1 and 5: the environment replay
  stats::Rng loss_rng_;
  // Per-round scratch, kept across rounds to avoid reallocating. All of it
  // is written either sequentially or at disjoint indices (phase 2 writes
  // outbox_[j] / replies_[i] from the single task that owns the involved
  // node; phase 4 consumes inbox_[i] from the task that owns i).
  std::vector<std::optional<Message>> outbox_;
  std::vector<std::optional<Message>> replies_;
  std::vector<std::vector<Message>> inbox_;
  std::unique_ptr<exec::ThreadPool> pool_;
  std::size_t round_ = 0;
  RoundPhaseTimings timings_;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace ddc::sim
