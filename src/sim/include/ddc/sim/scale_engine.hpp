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
//   * in-flight messages: a fixed-slot arena of 2n message slots, one per
//     row of RoundPlan's message table (slot = row id), so the parallel
//     prepare phase writes disjoint slots with no allocation and no
//     synchronization;
//   * inboxes: none of their own — a receiver unions the delivered slots
//     of RoundPlan::incoming(i), which lists them in delivery order.
//
// Bit-identity with RoundRunner — the contract the golden equivalence
// suite pins — holds BY CONSTRUCTION, not by re-implementation: each
// worker chunk owns a scratch classifier (the very GenericClassifier the
// object engine runs); per node the engine rehydrates the scratch from
// the pools, runs the unmodified split/receive kernels, and writes the
// state back. Round structure, draw order (selection, loss, crash) and
// per-node call order replicate RoundRunner phase for phase, because
// both read the same RoundPlan: its draws (phases 1 and 5) and its
// message table (the split, delivery and absorb orders of 2–4):
//
//   1. plan     (sequential)  selection draws, message table
//   2. prepare  (parallel)    per node: one split per outgoing(j) row
//   3. deliver  (sequential)  one delivered flag per row, loss draws in
//                             row order
//   4. absorb   (parallel)    per receiver: union the delivered slots of
//                             incoming(i), one receive
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
        state_(n_, k_, sd_),
        slots_(2 * n_, k_, sd_),
        delivered_(2 * n_, false),
        pool_(exec::make_lane_pool(options_.parallelism)) {
    DDC_EXPECTS(n_ >= 2);
    DDC_EXPECTS(k_ >= 1);
    DDC_EXPECTS(sd_ >= 1);
    DDC_EXPECTS(options_.message_loss_probability >= 0.0 &&
                options_.message_loss_probability <= 1.0);
    for (NodeId i = 0; i < n_; ++i) {
      state_.counts[i] = 1;
      state_.weights[i * k_] = protocol_.quanta_per_unit();
      protocol_.pack(initial_summary(i), &state_.summaries[i * k_ * sd_]);
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
    read_row(state_, i, result);
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
      scratch.collections().clear();
      read_row(state_, i, scratch);
      fn(i, static_cast<const Message&>(scratch));
    }
  }

  /// Sum of weight quanta held by all nodes, straight from the weight
  /// pool (the conservation audit at scale — no unpacking involved).
  [[nodiscard]] std::int64_t total_quanta() const noexcept {
    std::int64_t acc = 0;
    for (NodeId i = 0; i < n_; ++i) {
      for (std::size_t c = 0; c < state_.counts[i]; ++c) {
        acc += state_.weights[i * k_ + c];
      }
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
  /// classifier serves its nodes one after another; per node it splits
  /// once per row of plan_.outgoing(j), in that order — the order
  /// RoundRunner::prepare_messages uses.
  void prepare_messages() {
    exec::parallel_for_chunks(
        pool_.get(), n_,
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          Classifier& scratch = scratch_[chunk];
          for (NodeId j = begin; j < end; ++j) {
            const std::span<const std::size_t> rows = plan_.outgoing(j);
            if (rows.empty()) continue;
            load_state(j, scratch);
            for (const std::size_t r : rows) {
              write_row(scratch.split(), slots_, r);
            }
            store_state(j, scratch);
          }
        });
  }

  /// Phase 3 — the wire, sequential in row (delivery) order: a non-empty
  /// message to a live target takes one loss draw, exactly like
  /// RoundRunner::transmit.
  void deliver_messages() {
    const std::span<const PlannedMessage> rows = plan_.messages();
    for (std::size_t r = 0; r < rows.size(); ++r) {
      delivered_[r] =
          slots_.counts[r] > 0 && plan_.alive(rows[r].to) && !channel_drops();
    }
  }

  /// Phase 4 — parallel batch absorption: per receiver, union the
  /// delivered slots of incoming(i) in delivery order into one message,
  /// run one receive.
  void absorb_inboxes() {
    exec::parallel_for_chunks(
        pool_.get(), n_,
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          Classifier& scratch = scratch_[chunk];
          for (NodeId i = begin; i < end; ++i) {
            const std::span<const std::size_t> inbox = plan_.incoming(i);
            const auto delivered = [&](std::size_t r) { return delivered_[r]; };
            if (!plan_.alive(i) ||
                std::none_of(inbox.begin(), inbox.end(), delivered)) {
              continue;
            }
            load_state(i, scratch);
            if constexpr (Protocol::has_node_rng) {
              Protocol::node_rng(scratch) = rngs_[i];
            }
            Message combined;
            for (const std::size_t r : inbox) {
              if (delivered_[r]) read_row(slots_, r, combined);
            }
            scratch.receive(std::move(combined));
            store_state(i, scratch);
            if constexpr (Protocol::has_node_rng) {
              rngs_[i] = Protocol::node_rng(scratch);
            }
          }
        });
  }

  /// One loss draw per message (only when losses are configured, to keep
  /// loss-free executions' randomness untouched).
  [[nodiscard]] bool channel_drops() {
    return options_.message_loss_probability > 0.0 &&
           loss_rng_.bernoulli(options_.message_loss_probability);
  }

  /// Flat collection storage, one row per node (state_) or per message
  /// slot (slots_): row r holds counts[r] collections, collection c's
  /// weight at weights[r·k + c] and its packed summary at
  /// summaries[(r·k + c)·sd].
  struct Pool {
    Pool(std::size_t rows, std::size_t k, std::size_t sd)
        : counts(rows, 0), weights(rows * k, 0), summaries(rows * k * sd, 0.0) {}
    std::vector<std::uint32_t> counts;
    std::vector<std::int64_t> weights;
    std::vector<double> summaries;
  };

  /// Appends pool row `row`'s collections onto `out`, in row order.
  void read_row(const Pool& pool, std::size_t row, Message& out) const {
    for (std::size_t c = 0; c < pool.counts[row]; ++c) {
      out.add(core::Collection<Summary>{
          protocol_.unpack(&pool.summaries[(row * k_ + c) * sd_]),
          core::Weight::from_quanta(pool.weights[row * k_ + c]),
          {}});
    }
  }

  /// Packs `message` into pool row `row`. Only the task that owns the
  /// row writes it, so parallel writes are disjoint.
  void write_row(const Message& message, Pool& pool, std::size_t row) {
    const std::size_t count = message.size();
    DDC_ASSERT(count <= k_);
    pool.counts[row] = static_cast<std::uint32_t>(count);
    for (std::size_t c = 0; c < count; ++c) {
      pool.weights[row * k_ + c] = message[c].weight.quanta();
      protocol_.pack(message[c].summary, &pool.summaries[(row * k_ + c) * sd_]);
    }
  }

  /// Rehydrates node i's classification into the scratch classifier.
  void load_state(NodeId i, Classifier& scratch) const {
    scratch.mutable_classification().collections().clear();
    read_row(state_, i, scratch.mutable_classification());
  }

  /// Writes the scratch classifier's classification back into the pools.
  void store_state(NodeId i, const Classifier& scratch) {
    DDC_ASSERT(!scratch.classification().empty());
    write_row(scratch.classification(), state_, i);
  }

  Topology topology_;
  Protocol protocol_;
  RoundRunnerOptions options_;
  std::size_t n_;
  std::size_t k_;
  std::size_t sd_;
  RoundPlan plan_;  // phase 1 and 5 draws, and the round's message table
  stats::Rng loss_rng_;

  Pool state_;  // node i's state is row i
  std::vector<stats::Rng> rngs_;  // engaged iff Protocol::has_node_rng

  // Message slot arena: slot r carries row r of plan_.messages(), and
  // delivered_[r] is its phase-3 verdict.
  Pool slots_;
  std::vector<bool> delivered_;

  // One scratch classifier per parallel chunk; their stats accumulate
  // the work of every node they served (see partition_seconds()).
  std::vector<Classifier> scratch_;

  std::unique_ptr<exec::ThreadPool> pool_;
  std::size_t round_ = 0;
  RoundPhaseTimings timings_;
};

}  // namespace ddc::sim
