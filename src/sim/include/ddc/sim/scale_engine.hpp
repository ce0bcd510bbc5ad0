// Struct-of-arrays round engine — the 10⁵–10⁶ node simulation backend.
//
// RoundRunner keeps one protocol object per node: a Classification with
// heap-allocated summaries, per-node inbox vectors, per-node option
// structs. At a million nodes that representation is dominated by pointer
// chasing and allocator metadata. SoaRoundEngine stores the SAME state in
// flat pools —
//
//   * node state: a weight-quanta array (n × k int64), a packed-summary
//     array (n × k × sd doubles, sd = doubles per summary) and a
//     collection-count array;
//   * in-flight messages: a fixed-slot arena of 2n message slots (slot i
//     holds node i's outgoing gossip, slot n+i holds the reply addressed
//     to node i), so the parallel prepare phase writes disjoint slots
//     with no allocation and no synchronization;
//   * inboxes: a CSR index over delivered slots, built by a stable
//     counting sort that preserves delivery order.
//
// Bit-identity with RoundRunner — the contract the golden equivalence
// suite pins — holds BY CONSTRUCTION, not by re-implementation: each
// worker chunk owns a scratch classifier (the very GenericClassifier the
// object engine runs); per node the engine rehydrates the scratch from
// the pools, runs the unmodified split/receive kernels, and writes the
// state back. Round structure, draw order (selection, loss, crash) and
// per-node call order replicate RoundRunner phase for phase; phases 1
// and 5 run through the same RoundPlan class:
//
//   1. plan     (sequential)  selection draws, reply bookkeeping
//   2. prepare  (parallel)    splits into the slot arena
//   3. deliver  (sequential)  loss draws, inbox CSR build, in node order
//   4. absorb   (parallel)    per receiver: union inbox slots, one receive
//   5. crash    (sequential)  end-of-round crash draws
//
// Deliberate non-features: no TraceRecorder (a per-event log defeats the
// point at 10⁶ nodes — use RoundRunner to trace) and no aux-vector
// tracking (O(n) per collection). Round mode only; the async engine's
// event heap is inherently per-node and stays on AsyncRunner.
//
// The Protocol parameter describes how one protocol's node state embeds
// into the pools (see ddc/gossip/scale.hpp for the centroid and GM
// bindings):
//
//   using Classifier = ...;            // the scratch node type
//   using Summary    = ...;            // its summary type
//   static constexpr bool has_node_rng;// per-node persistent RNG stream?
//   std::size_t k();                   // max collections per node
//   std::int64_t quanta_per_unit();
//   std::size_t summary_doubles();     // sd: packed doubles per summary
//   Classifier make_scratch();         // state is overwritten before use
//   void pack(const Summary&, double* out);
//   Summary unpack(const double* in);  // exact round-trip with pack
//   stats::Rng initial_rng(NodeId);            // iff has_node_rng
//   static stats::Rng& node_rng(Classifier&);  // iff has_node_rng
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/core/classifier.hpp>
#include <ddc/exec/parallel_for.hpp>
#include <ddc/exec/thread_pool.hpp>
#include <ddc/sim/gossip_node.hpp>
#include <ddc/sim/round_plan.hpp>
#include <ddc/sim/round_runner.hpp>
#include <ddc/sim/topology.hpp>
#include <ddc/stats/rng.hpp>

namespace ddc::sim {

template <typename Protocol>
class SoaRoundEngine {
 public:
  using Classifier = typename Protocol::Classifier;
  using Summary = typename Protocol::Summary;
  using Message = core::Classification<Summary>;

  /// Builds the engine over `topology` with node i's initial state being
  /// one full-weight collection of summary `initial_summary(i)`.
  /// `initial_summary` is consumed during construction only.
  template <typename InitSummary>
  SoaRoundEngine(Topology topology, Protocol protocol,
                 RoundRunnerOptions options, InitSummary&& initial_summary)
      : topology_(std::move(topology)),
        protocol_(std::move(protocol)),
        options_(options),
        n_(topology_.num_nodes()),
        k_(protocol_.k()),
        sd_(protocol_.summary_doubles()),
        plan_(n_, options_),
        loss_rng_(stats::Rng::derive(options.seed, 0x4c4f5353ULL)),
        counts_(n_, 1),
        weights_(n_ * k_, 0),
        summaries_(n_ * k_ * sd_, 0.0),
        slot_counts_(2 * n_, 0),
        slot_weights_(2 * n_ * k_, 0),
        slot_summaries_(2 * n_ * k_ * sd_, 0.0),
        inbox_counts_(n_, 0),
        inbox_offsets_(n_ + 1, 0),
        pool_(exec::make_lane_pool(options_.parallelism)) {
    DDC_EXPECTS(n_ >= 2);
    DDC_EXPECTS(k_ >= 1);
    DDC_EXPECTS(sd_ >= 1);
    DDC_EXPECTS(options_.message_loss_probability >= 0.0 &&
                options_.message_loss_probability <= 1.0);
    for (NodeId i = 0; i < n_; ++i) {
      weights_[i * k_] = protocol_.quanta_per_unit();
      protocol_.pack(initial_summary(i), &summaries_[i * k_ * sd_]);
    }
    if constexpr (Protocol::has_node_rng) {
      rngs_.reserve(n_);
      for (NodeId i = 0; i < n_; ++i) rngs_.push_back(protocol_.initial_rng(i));
    }
    const std::size_t chunks = exec::parallel_chunk_count(pool_.get(), n_);
    scratch_.reserve(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
      scratch_.push_back(protocol_.make_scratch());
    }
    deliveries_.reserve(2 * n_);
  }

  /// Executes one round — same five phases, same environment draw order
  /// as RoundRunner<Node>::run_round.
  // ddcverify: hotpath
  void run_round() {
    plan_.plan(topology_);  // phase 1
    // Audited timing probes (as in RoundRunner): the clock reads feed the
    // `--timing` counters only, never control flow.
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
    plan_.crash();  // phase 5
    ++round_;
  }

  void run_rounds(std::size_t count) {
    for (std::size_t r = 0; r < count; ++r) run_round();
  }

  [[nodiscard]] std::size_t round() const noexcept { return round_; }
  [[nodiscard]] std::size_t num_nodes() const noexcept { return n_; }
  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] const RoundPhaseTimings& timings() const noexcept {
    return timings_;
  }

  [[nodiscard]] bool alive(NodeId i) const { return plan_.alive(i); }
  [[nodiscard]] std::size_t alive_count() const noexcept {
    return plan_.alive_count();
  }

  /// Node i's classification, rehydrated from the pools. O(k) — intended
  /// for probes, not per-round-per-node loops (use
  /// for_each_classification for sweeps).
  [[nodiscard]] Message classification_of(NodeId i) const {
    DDC_EXPECTS(i < n_);
    Message result;
    unpack_node(i, result);
    return result;
  }

  /// Streams every node's classification through `fn(i, classification)`
  /// in node order, reusing ONE scratch classification — no per-node
  /// history is ever materialized. The reference passed to `fn` is
  /// invalidated by the next iteration.
  template <typename Fn>
  void for_each_classification(Fn&& fn) const {
    Message scratch;
    for (NodeId i = 0; i < n_; ++i) {
      unpack_node(i, scratch);
      fn(i, static_cast<const Message&>(scratch));
    }
  }

  /// Sum of weight quanta held by all nodes, straight from the weight
  /// pool (the conservation audit at scale — no unpacking involved).
  [[nodiscard]] std::int64_t total_quanta() const noexcept {
    std::int64_t acc = 0;
    for (NodeId i = 0; i < n_; ++i) {
      for (std::size_t c = 0; c < counts_[i]; ++c) acc += weights_[i * k_ + c];
    }
    return acc;
  }

  /// Wall-clock the scratch classifiers spent inside the partition
  /// policy, summed over chunks (equals the per-node sum the object
  /// engine reports, since every receive runs on exactly one scratch).
  [[nodiscard]] double partition_seconds() const noexcept {
    double acc = 0.0;
    for (const Classifier& s : scratch_) acc += s.stats().partition_seconds;
    return acc;
  }

  /// Wall-clock inside EM, when the protocol's policy exposes it; 0.0 for
  /// policies without an EM stage.
  [[nodiscard]] double em_seconds() const noexcept {
    double acc = 0.0;
    for (const Classifier& s : scratch_) {
      if constexpr (requires { s.partition_policy().em_seconds(); }) {
        acc += s.partition_policy().em_seconds();
      }
    }
    return acc;
  }

 private:
  /// Phase 2 — parallel splits into the slot arena. Each chunk's scratch
  /// classifier serves its nodes one after another; per node the split
  /// order (replies to lower-indexed initiators, own send, replies to
  /// higher-indexed ones) matches RoundRunner::prepare_messages exactly.
  void prepare_messages() {
    const bool sends = plan_.sends_data();
    const bool replies = plan_.wants_reply();
    std::fill(slot_counts_.begin(), slot_counts_.end(), std::uint32_t{0});
    exec::parallel_for_chunks(
        pool_.get(), n_,
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          Classifier& scratch = scratch_[chunk];
          for (NodeId j = begin; j < end; ++j) {
            const bool has_target = plan_.target(j).has_value();
            if (replies) {
              const std::span<const NodeId> requests = plan_.requesters(j);
              const bool own_send = sends && has_target;
              if (requests.empty() && !own_send) continue;
              load_state(j, scratch);
              std::size_t r = 0;
              for (; r < requests.size() && requests[r] < j; ++r) {
                emit(scratch.split(), n_ + requests[r]);
              }
              if (own_send) emit(scratch.split(), j);
              for (; r < requests.size(); ++r) {
                emit(scratch.split(), n_ + requests[r]);
              }
              store_state(j, scratch);
            } else if (has_target) {
              load_state(j, scratch);
              emit(scratch.split(), j);
              store_state(j, scratch);
            }
          }
        });
  }

  /// Phase 3 — the wire, sequential in node order (loss draws included),
  /// then the inbox CSR via stable counting sort: per receiver, slots
  /// appear in delivery order, exactly like RoundRunner's inbox
  /// push_backs.
  void deliver_messages() {
    const bool sends = plan_.sends_data();
    const bool replies = plan_.wants_reply();
    deliveries_.clear();
    for (NodeId i = 0; i < n_; ++i) {
      if (!plan_.alive(i)) continue;
      const std::optional<NodeId> target = plan_.target(i);
      if (!target) continue;
      if (sends && slot_counts_[i] > 0) transmit(*target, i);
      if (replies && plan_.alive(*target) && slot_counts_[n_ + i] > 0) {
        // The contacted neighbor answers with half of its own state.
        transmit(i, n_ + i);
      }
    }
    std::fill(inbox_counts_.begin(), inbox_counts_.end(), std::size_t{0});
    for (const auto& [to, slot] : deliveries_) ++inbox_counts_[to];
    inbox_offsets_[0] = 0;
    for (NodeId j = 0; j < n_; ++j) {
      inbox_offsets_[j + 1] = inbox_offsets_[j] + inbox_counts_[j];
    }
    inbox_slots_.resize(deliveries_.size());
    for (NodeId j = 0; j < n_; ++j) inbox_counts_[j] = inbox_offsets_[j];
    for (const auto& [to, slot] : deliveries_) {
      inbox_slots_[inbox_counts_[to]++] = slot;
    }
  }

  /// Phase 4 — parallel batch absorption: per receiver, union the inbox
  /// slots in delivery order into one message, run one receive.
  void absorb_inboxes() {
    exec::parallel_for_chunks(
        pool_.get(), n_,
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          Classifier& scratch = scratch_[chunk];
          for (NodeId i = begin; i < end; ++i) {
            const std::size_t ib = inbox_offsets_[i];
            const std::size_t ie = inbox_offsets_[i + 1];
            if (!plan_.alive(i) || ib == ie) continue;
            load_state(i, scratch);
            if constexpr (Protocol::has_node_rng) {
              Protocol::node_rng(scratch) = rngs_[i];
            }
            Message combined;
            for (std::size_t s = ib; s < ie; ++s) {
              unpack_slot(inbox_slots_[s], combined);
            }
            scratch.receive(std::move(combined));
            store_state(i, scratch);
            if constexpr (Protocol::has_node_rng) {
              rngs_[i] = Protocol::node_rng(scratch);
            }
          }
        });
  }

  /// Queues one non-empty message slot for delivery — the same
  /// dead-target / loss-draw sequence as RoundRunner::transmit.
  void transmit(NodeId to, std::size_t slot) {
    if (!plan_.alive(to)) return;  // packet to a dead mote (drop_at_crashed)
    if (options_.message_loss_probability > 0.0 &&
        loss_rng_.bernoulli(options_.message_loss_probability)) {
      return;
    }
    deliveries_.emplace_back(to, slot);
  }

  /// Rehydrates node i's classification into the scratch classifier.
  void load_state(NodeId i, Classifier& scratch) const {
    auto& collections = scratch.mutable_classification().collections();
    collections.clear();
    for (std::size_t c = 0; c < counts_[i]; ++c) {
      collections.push_back(core::Collection<Summary>{
          protocol_.unpack(&summaries_[(i * k_ + c) * sd_]),
          core::Weight::from_quanta(weights_[i * k_ + c]),
          {}});
    }
  }

  /// Writes the scratch classifier's classification back into the pools.
  void store_state(NodeId i, const Classifier& scratch) {
    const auto& classification = scratch.classification();
    const std::size_t count = classification.size();
    DDC_ASSERT(count >= 1 && count <= k_);
    counts_[i] = static_cast<std::uint32_t>(count);
    for (std::size_t c = 0; c < count; ++c) {
      weights_[i * k_ + c] = classification[c].weight.quanta();
      protocol_.pack(classification[c].summary,
                     &summaries_[(i * k_ + c) * sd_]);
    }
  }

  /// Packs an outgoing message into its arena slot. Only the owning
  /// prepare task writes a given slot, so parallel emits are disjoint.
  void emit(Message message, std::size_t slot) {
    const std::size_t count = message.size();
    DDC_ASSERT(count <= k_);
    slot_counts_[slot] = static_cast<std::uint32_t>(count);
    for (std::size_t c = 0; c < count; ++c) {
      slot_weights_[slot * k_ + c] = message[c].weight.quanta();
      protocol_.pack(message[c].summary,
                     &slot_summaries_[(slot * k_ + c) * sd_]);
    }
  }

  /// Appends a slot's collections onto `message` in slot order.
  void unpack_slot(std::size_t slot, Message& message) const {
    for (std::size_t c = 0; c < slot_counts_[slot]; ++c) {
      message.add(core::Collection<Summary>{
          protocol_.unpack(&slot_summaries_[(slot * k_ + c) * sd_]),
          core::Weight::from_quanta(slot_weights_[slot * k_ + c]),
          {}});
    }
  }

  /// Rebuilds node i's classification into `out` (clearing it first).
  void unpack_node(NodeId i, Message& out) const {
    out.collections().clear();
    for (std::size_t c = 0; c < counts_[i]; ++c) {
      out.add(core::Collection<Summary>{
          protocol_.unpack(&summaries_[(i * k_ + c) * sd_]),
          core::Weight::from_quanta(weights_[i * k_ + c]),
          {}});
    }
  }

  Topology topology_;
  Protocol protocol_;
  RoundRunnerOptions options_;
  std::size_t n_;
  std::size_t k_;
  std::size_t sd_;
  RoundPlan plan_;  // phases 1 and 5: the environment replay
  stats::Rng loss_rng_;

  // Node-state pools. counts_[i] collections live at rows i·k … i·k+c.
  std::vector<std::uint32_t> counts_;
  std::vector<std::int64_t> weights_;
  std::vector<double> summaries_;
  std::vector<stats::Rng> rngs_;  // engaged iff Protocol::has_node_rng

  // Message slot arena: slot i = node i's outgoing gossip, slot n+i =
  // the reply addressed to node i. Parallel writes hit disjoint slots.
  std::vector<std::uint32_t> slot_counts_;
  std::vector<std::int64_t> slot_weights_;
  std::vector<double> slot_summaries_;

  // Deliveries of a round and the CSR inbox built from them.
  std::vector<std::pair<NodeId, std::size_t>> deliveries_;
  std::vector<std::size_t> inbox_counts_;
  std::vector<std::size_t> inbox_offsets_;
  std::vector<std::size_t> inbox_slots_;

  // One scratch classifier per parallel chunk; their stats accumulate
  // the work of every node they served (see partition_seconds()).
  std::vector<Classifier> scratch_;

  std::unique_ptr<exec::ThreadPool> pool_;
  std::size_t round_ = 0;
  RoundPhaseTimings timings_;
};

}  // namespace ddc::sim
