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
//   * inboxes: none of their own — a receiver reads the delivered slots
//     of RoundPlan::incoming(i), which lists them in delivery order.
//
// The round works on those rows directly:
//
//   * the split (Algorithm 1, lines 5–7) is protocol-independent on
//     packed rows — each collection keeps Weight::half() of its quanta,
//     the slot gets the remainder, a one-quantum collection sends
//     nothing, and summary doubles are copied bit for bit — so the
//     engine does it itself, for every protocol, with no scratch;
//   * the receive (lines 8–11) is one Protocol hook mapping the node's
//     row plus its delivered slots to the node's new row, with a
//     per-chunk workspace. The centroid binding runs it allocation-free
//     on the packed rows; the GM binding rehydrates a scratch
//     GenericClassifier (see ddc/gossip/scale.hpp).
//
// Bit-identity with RoundRunner — the contract the golden equivalence
// suite pins — holds because both sides run one arithmetic: the split is
// Weight's halving rule, and every receive hook reproduces the
// classifier's union order, partition, one-quantum re-homing
// (core::rehome_quantum_singletons) and mergeSet operation for operation.
// Round structure, draw order (selection, loss, crash) and per-node call
// order replicate RoundRunner phase for phase, because both read the same
// RoundPlan: its draws (phases 1 and 5) and its message table (the split,
// delivery and absorb orders of 2–4):
//
//   1. plan     (parallel)    selection draws (counted, drawn in node
//                             order, resolved), message table
//   2. prepare  (parallel)    per node: one split per outgoing(j) row
//   3. deliver  (parallel)    one delivered flag per row; with loss
//                             configured, sequential: loss draws in row
//                             order
//   4. absorb   (parallel)    per live receiver with a delivered slot in
//                             incoming(i): one receive hook
//   5. crash    (sequential)  end-of-round crash draws
//
// Deliberate non-features: no TraceRecorder (a per-event log defeats the
// point at 10⁶ nodes — use RoundRunner to trace) and no aux-vector
// tracking (O(n) per collection). Round mode only; the async engine's
// event heap is inherently per-node and stays on AsyncRunner.
//
// The Protocol parameter describes how one protocol's node state embeds
// into the pools and how it receives (see ddc/gossip/scale.hpp for the
// centroid and GM bindings):
//
//   using Summary   = ...;              // the unpacked summary type
//   using Workspace = ...;              // per-chunk receive scratch
//   std::size_t k();                    // max collections per node
//   std::int64_t quanta_per_unit();
//   std::size_t summary_doubles();      // sd: packed doubles per summary
//   void pack(const Summary&, double* out);
//   Summary unpack(const double* in);   // exact round-trip with pack
//   Workspace make_workspace(std::size_t max_collections);
//   void receive(Workspace&, NodeId i, SoaRow own, const SoaInbox&);
//   double Workspace::partition_seconds() const;
//   double Workspace::em_seconds() const;  // optional
//
// receive() runs concurrently for distinct nodes (one workspace per
// chunk); `max_collections` bounds the union any receive sees on this
// topology.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/core/collection.hpp>
#include <ddc/core/weight.hpp>
#include <ddc/exec/parallel_for.hpp>
#include <ddc/exec/thread_pool.hpp>
#include <ddc/sim/gossip_node.hpp>
#include <ddc/sim/round_plan.hpp>
#include <ddc/sim/round_runner.hpp>
#include <ddc/sim/topology.hpp>
#include <ddc/stats/rng.hpp>

namespace ddc::sim {

/// Flat collection storage, one row per node (node state) or per message
/// slot: row r holds counts[r] collections, collection c's weight at
/// weights[r·k + c] and its packed summary at summaries[(r·k + c)·sd].
struct SoaPool {
  SoaPool(std::size_t rows, std::size_t k, std::size_t sd)
      : k(k),
        sd(sd),
        counts(rows, 0),
        weights(rows * k, 0),
        summaries(rows * k * sd, 0.0) {}
  std::size_t k;
  std::size_t sd;
  std::vector<std::uint32_t> counts;
  std::vector<std::int64_t> weights;
  std::vector<double> summaries;
};

/// Read-only view of one pool row.
struct SoaRowView {
  std::size_t count;
  const std::int64_t* weights;
  const double* summaries;
  std::size_t sd;

  [[nodiscard]] const double* summary(std::size_t c) const {
    return summaries + c * sd;
  }
};

/// Writable view of one pool row (room for k collections).
struct SoaRow {
  std::uint32_t* count;
  std::int64_t* weights;
  double* summaries;
  std::size_t sd;

  [[nodiscard]] double* summary(std::size_t c) const {
    return summaries + c * sd;
  }
  [[nodiscard]] SoaRowView view() const {
    return {*count, weights, summaries, sd};
  }
};

[[nodiscard]] inline SoaRowView row_view(const SoaPool& pool, std::size_t r) {
  return {pool.counts[r], &pool.weights[r * pool.k],
          &pool.summaries[r * pool.k * pool.sd], pool.sd};
}

[[nodiscard]] inline SoaRow row_ref(SoaPool& pool, std::size_t r) {
  return {&pool.counts[r], &pool.weights[r * pool.k],
          &pool.summaries[r * pool.k * pool.sd], pool.sd};
}

/// A receiver's delivered message slots, in delivery order.
class SoaInbox {
 public:
  SoaInbox(const SoaPool& slots, std::span<const std::size_t> rows,
           const std::vector<std::uint8_t>& delivered)
      : slots_(slots), rows_(rows), delivered_(delivered) {}

  /// Calls `fn(SoaRowView)` once per delivered slot, in delivery order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const std::size_t r : rows_) {
      if (delivered_[r]) fn(row_view(slots_, r));
    }
  }

 private:
  const SoaPool& slots_;
  std::span<const std::size_t> rows_;
  const std::vector<std::uint8_t>& delivered_;
};

/// Appends `row`'s collections to `out`, in row order, unpacked through
/// `protocol`.
template <typename Protocol, typename Message>
void unpack_row(const Protocol& protocol, SoaRowView row, Message& out) {
  for (std::size_t c = 0; c < row.count; ++c) {
    out.add({protocol.unpack(row.summary(c)),
             core::Weight::from_quanta(row.weights[c]),
             {}});
  }
}

/// Packs `message` (at most k collections) into `row`.
template <typename Protocol, typename Message>
void pack_row(const Protocol& protocol, const Message& message, SoaRow row) {
  *row.count = static_cast<std::uint32_t>(message.size());
  for (std::size_t c = 0; c < message.size(); ++c) {
    row.weights[c] = message[c].weight.quanta();
    protocol.pack(message[c].summary, row.summary(c));
  }
}

template <typename Protocol>
class SoaRoundEngine {
 public:
  using Summary = typename Protocol::Summary;
  using Workspace = typename Protocol::Workspace;
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
        delivered_(2 * n_, 0),
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
    const std::size_t max_collections = k_ * (max_inbox_rows() + 1);
    const std::size_t chunks = exec::parallel_chunk_count(pool_.get(), n_);
    workspaces_.reserve(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
      workspaces_.push_back(protocol_.make_workspace(max_collections));
    }
  }

  /// Executes one round — same five phases, same environment draw order
  /// as RoundRunner<Node>::run_round.
  // ddcverify: hotpath
  void run_round() {
    timed_phase(timings_.plan_seconds,
                [&] { plan_.plan(topology_, pool_.get()); });
    timed_phase(timings_.prepare_seconds, [&] { prepare_messages(); });
    timed_phase(timings_.deliver_seconds, [&] { deliver_messages(); });
    timed_phase(timings_.absorb_seconds, [&] { absorb_inboxes(); });
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
    unpack_row(protocol_, row_view(state_, i), result);
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
      unpack_row(protocol_, row_view(state_, i), scratch);
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

  /// Wall-clock the receives spent inside the partition step, summed
  /// over the chunk workspaces (equals the per-node sum the object
  /// engine reports, since every receive runs on exactly one workspace).
  [[nodiscard]] double partition_seconds() const noexcept {
    double acc = 0.0;
    for (const Workspace& w : workspaces_) acc += w.partition_seconds();
    return acc;
  }

  /// Wall-clock inside EM, when the protocol's workspace exposes it; 0.0
  /// for protocols without an EM stage.
  [[nodiscard]] double em_seconds() const noexcept {
    double acc = 0.0;
    for (const Workspace& w : workspaces_) {
      if constexpr (requires { w.em_seconds(); }) acc += w.em_seconds();
    }
    return acc;
  }

 private:
  /// Phase 2 — parallel splits into the slot arena: node j splits once
  /// per row of plan_.outgoing(j), in that order — the order
  /// RoundRunner::prepare_messages uses.
  void prepare_messages() {
    exec::parallel_for_chunks(
        pool_.get(), n_,
        [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
          for (NodeId j = begin; j < end; ++j) {
            for (const std::size_t r : plan_.outgoing(j)) split_into(j, r);
          }
        });
  }

  /// Algorithm 1, lines 5–7, on packed rows: each of node j's
  /// collections keeps Weight::half() of its quanta and slot r receives
  /// the remainder with a bit-for-bit copy of the summary; a one-quantum
  /// collection sends nothing (so the slot may be empty).
  // ddcverify: hotpath
  void split_into(NodeId j, std::size_t r) {
    std::uint32_t sent = 0;
    for (std::size_t c = 0; c < state_.counts[j]; ++c) {
      std::int64_t& quanta = state_.weights[j * k_ + c];
      const core::Weight weight = core::Weight::from_quanta(quanta);
      const core::Weight out = weight.remainder_after_half();
      if (out.is_zero()) continue;
      quanta = weight.half().quanta();
      slots_.weights[r * k_ + sent] = out.quanta();
      std::copy_n(&state_.summaries[(j * k_ + c) * sd_], sd_,
                  &slots_.summaries[(r * k_ + sent) * sd_]);
      ++sent;
    }
    slots_.counts[r] = sent;
  }

  /// Phase 3 — the wire: a non-empty message to a live target is
  /// delivered. With loss configured it also takes one loss draw,
  /// exactly like RoundRunner::transmit (loss-free runs draw nothing),
  /// so the verdicts run in row (delivery) order; without loss they are
  /// a map over the rows.
  void deliver_messages() {
    const std::span<const PlannedMessage> rows = plan_.messages();
    const auto reaches = [&](std::size_t r) {
      return slots_.counts[r] > 0 && plan_.alive(rows[r].to);
    };
    const double loss = options_.message_loss_probability;
    if (loss > 0.0) {
      for (std::size_t r = 0; r < rows.size(); ++r) {
        delivered_[r] = reaches(r) && !loss_rng_.bernoulli(loss);
      }
      return;
    }
    exec::parallel_for_chunks(
        pool_.get(), rows.size(),
        [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
          for (std::size_t r = begin; r < end; ++r) delivered_[r] = reaches(r);
        });
  }

  /// Phase 4 — parallel batch absorption: every live receiver with at
  /// least one delivered slot in incoming(i) runs one receive hook.
  void absorb_inboxes() {
    exec::parallel_for_chunks(
        pool_.get(), n_,
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          Workspace& workspace = workspaces_[chunk];
          for (NodeId i = begin; i < end; ++i) {
            const std::span<const std::size_t> inbox = plan_.incoming(i);
            const auto delivered = [&](std::size_t r) { return delivered_[r]; };
            if (!plan_.alive(i) ||
                std::none_of(inbox.begin(), inbox.end(), delivered)) {
              continue;
            }
            protocol_.receive(workspace, i, row_ref(state_, i),
                              SoaInbox(slots_, inbox, delivered_));
          }
        });
  }

  /// The most message rows any node can receive in one round: a forward
  /// from each in-neighbor plus the reply to its own contact.
  [[nodiscard]] std::size_t max_inbox_rows() const {
    std::vector<std::uint32_t> in_degree(n_, 0);
    for (NodeId i = 0; i < n_; ++i) {
      for (const NodeId t : topology_.neighbors(i)) ++in_degree[t];
    }
    return std::size_t{*std::max_element(in_degree.begin(), in_degree.end())} +
           1;
  }

  Topology topology_;
  Protocol protocol_;
  RoundRunnerOptions options_;
  std::size_t n_;
  std::size_t k_;
  std::size_t sd_;
  RoundPlan plan_;  // phase 1 and 5 draws, and the round's message table
  stats::Rng loss_rng_;

  SoaPool state_;  // node i's state is row i

  // Message slot arena: slot r carries row r of plan_.messages(), and
  // delivered_[r] is its phase-3 verdict — a byte, not a packed
  // vector<bool> bit, so lanes writing neighbouring verdicts never share
  // a memory location.
  SoaPool slots_;
  std::vector<std::uint8_t> delivered_;

  // One receive workspace per parallel chunk; their timers accumulate
  // the work of every node they served (see partition_seconds()).
  std::vector<Workspace> workspaces_;

  std::unique_ptr<exec::ThreadPool> pool_;
  std::size_t round_ = 0;
  RoundPhaseTimings timings_;
};

}  // namespace ddc::sim
