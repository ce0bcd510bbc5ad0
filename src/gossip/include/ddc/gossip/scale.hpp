// Scale-engine bindings for the classifier protocols.
//
// SoaRoundEngine (src/sim) is protocol-agnostic: it stores node state in
// flat pools and splits on the packed rows itself. This header supplies
// what it cannot know — how one protocol's summary embeds into a fixed
// number of doubles and how one node receives (Algorithm 1, lines 8–11)
// — plus the factories that assemble a ready-to-run engine:
//
//   auto engine = ddc::gossip::make_centroid_scale_engine(
//       ddc::sim::Topology::grid(1000, 1000, false), inputs, net, options);
//
// The centroid receive runs Algorithm 2 straight on the packed rows,
// with no allocation in the steady state; the GM receive rehydrates a
// scratch GenericClassifier and keeps each node's EM restart stream.
// Packing is EXACT (doubles are copied bit-for-bit) and both receives
// perform the classifier's operations in the classifier's order, which
// is what lets the golden equivalence suite demand bit-identical
// classifications between this engine and RoundRunner.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include <ddc/common/agglomerate.hpp>
#include <ddc/common/assert.hpp>
#include <ddc/core/classifier.hpp>
#include <ddc/core/policy.hpp>
#include <ddc/gossip/classifier_node.hpp>
#include <ddc/gossip/network.hpp>
#include <ddc/linalg/kernels.hpp>
#include <ddc/linalg/matrix.hpp>
#include <ddc/linalg/vector.hpp>
#include <ddc/partition/greedy.hpp>
#include <ddc/sim/scale_engine.hpp>
#include <ddc/stats/gaussian.hpp>
#include <ddc/stats/rng.hpp>

namespace ddc::gossip {

/// SoA embedding of the centroid protocol (Algorithm 2): a summary is its
/// centroid, packed as d doubles. The receive works on packed rows with
/// a per-chunk workspace; the greedy partition is stateless, so there is
/// no per-node state beyond the row.
class CentroidScaleProtocol {
 public:
  using SummaryPolicy = summaries::CentroidPolicy;
  using Partition = partition::GreedyDistancePartition<SummaryPolicy>;
  using Summary = linalg::Vector;

  /// One chunk's receive scratch: the union's quanta, weights and
  /// packed centroids, and the partition's buffers.
  struct Workspace {
    std::vector<std::int64_t> quanta;
    std::vector<double> weights;
    std::vector<double> rows;
    partition::PackedPartitionBuffers partition;
    double partition_s = 0.0;

    [[nodiscard]] double partition_seconds() const noexcept {
      return partition_s;
    }
  };

  CentroidScaleProtocol(std::size_t dim, const NetworkConfig& config)
      : dim_(dim), config_(config) {
    DDC_EXPECTS(dim_ >= 1);
  }

  [[nodiscard]] std::size_t k() const noexcept { return config_.k; }
  [[nodiscard]] std::int64_t quanta_per_unit() const noexcept {
    return config_.quanta_per_unit;
  }
  [[nodiscard]] std::size_t summary_doubles() const noexcept { return dim_; }

  /// Sizes the buffers for unions of up to `max_collections`, so the
  /// receive never allocates. Past kReservedCollections (a hub of a star
  /// or a dense graph, whose bound would reserve O(n²) distance-cache
  /// entries per chunk) the buffers grow on demand instead.
  [[nodiscard]] Workspace make_workspace(std::size_t max_collections) const {
    const std::size_t m = std::min(max_collections, kReservedCollections);
    Workspace w;
    w.quanta.reserve(m);
    w.weights.reserve(m);
    w.rows.reserve(m * dim_);
    w.partition.rows.reserve(m * dim_);
    w.partition.weights.reserve(m);
    w.partition.merged.reserve(dim_);
    w.partition.agglomeration.dist.reserve(m * m);
    w.partition.agglomeration.nn_dist.reserve(m);
    w.partition.agglomeration.nn_slot.reserve(m);
    w.partition.agglomeration.groups.reset(m);
    return w;
  }

  /// Algorithm 1, lines 8–11, for one node on packed rows: unions `own`
  /// with the delivered slots, partitions with Algorithm 2, re-homes
  /// one-quantum singletons and writes the merged groups back to `own`.
  // ddcverify: hotpath
  void receive(Workspace& w, sim::NodeId /*node*/, sim::SoaRow own,
               const sim::SoaInbox& inbox) const {
    linalg::kernels::dispatch_dim(
        dim_, [&](auto dd) { receive_rows<dd()>(w, own, inbox); });
  }

  void pack(const Summary& summary, double* out) const {
    DDC_ASSERT(summary.dim() == dim_);
    std::copy_n(summary.data().data(), dim_, out);
  }

  [[nodiscard]] Summary unpack(const double* in) const {
    return linalg::Vector(std::vector<double>(in, in + dim_));
  }

 private:
  static constexpr std::size_t kReservedCollections = 256;

  /// receive() in the fixed-dimension kernel D.
  // ddcverify: hotpath
  template <std::size_t D>
  void receive_rows(Workspace& w, sim::SoaRow own,
                    const sim::SoaInbox& inbox) const {
    const std::size_t d = dim_;
    // The union, in the classifier's order: own collections, then the
    // delivered slots in delivery order.
    std::size_t m = *own.count;
    inbox.for_each([&](sim::SoaRowView slot) { m += slot.count; });
    w.quanta.resize(m);
    w.weights.resize(m);
    w.rows.resize(m * d);
    std::size_t at = 0;
    std::int64_t total = 0;
    const auto append = [&](sim::SoaRowView row) {
      for (std::size_t c = 0; c < row.count; ++c, ++at) {
        w.quanta[at] = row.weights[c];
        w.weights[at] = static_cast<double>(row.weights[c]);
        std::copy_n(row.summary(c), d, &w.rows[at * d]);
        total += row.weights[c];
      }
    };
    append(own.view());
    inbox.for_each(append);
    const auto row = [&](std::size_t j) { return &w.rows[j * d]; };

    // Audited timing probe: feeds only partition_seconds() (`--timing`),
    // never control flow.
    const auto start = std::chrono::steady_clock::now();  // ddcverify: allow(wall-clock)
    common::GroupLists& groups = Partition::partition_rows<D>(
        w.rows.data(), w.weights.data(), m, d, k(), w.partition);
    w.partition_s += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)  // ddcverify: allow(wall-clock)
                         .count();
    DDC_ENSURES(groups.member_count() == m);
    DDC_ENSURES(groups.size() <= k());
    core::rehome_quantum_singletons(
        groups, [&](std::size_t j) { return w.quanta[j] == 1; },
        [&](std::size_t a, std::size_t b) {
          return linalg::kernels::distance2<D>(row(a), row(b), d);
        });

    // Merge each group into the node's row. The union was copied out, so
    // overwriting the row is safe. A singleton keeps its collection.
    for (std::size_t g = 0; g < groups.size(); ++g) {
      std::int64_t quanta = 0;
      groups.for_each_member(g, [&](std::size_t j) { quanta += w.quanta[j]; });
      own.weights[g] = quanta;
      total -= quanta;
      if (groups.members(g) == 1) {
        std::copy_n(row(groups.head(g)), d, own.summary(g));
        continue;
      }
      SummaryPolicy::merge_rows<D>(
          d,
          [&](auto&& visit) {
            groups.for_each_member(
                g, [&](std::size_t j) { visit(w.weights[j], row(j)); });
          },
          own.summary(g));
    }
    *own.count = static_cast<std::uint32_t>(groups.size());
    DDC_ENSURES(total == 0);  // exact quanta conservation
  }

  std::size_t dim_;
  NetworkConfig config_;
};

/// SoA embedding of the GM protocol (Section 5): a summary is ⟨µ, Σ⟩,
/// packed as d + d² doubles (mean, then covariance row-major). The
/// receive rehydrates the node's row and its delivered slots into a
/// scratch GenericClassifier and runs the unmodified receive. The EM
/// partition policy carries each node's restart RNG, kept here per node
/// and swapped into the scratch around every receive — so node i's EM
/// draws follow the same stream the object engine's dedicated
/// EmPartition instance would consume.
class GmScaleProtocol {
 public:
  using SummaryPolicy = summaries::GaussianPolicy;
  using Partition = partition::EmPartition;
  using Classifier = core::GenericClassifier<SummaryPolicy, Partition>;
  using Summary = stats::Gaussian;

  /// One chunk's scratch classifier; its stats accumulate the work of
  /// every node it served.
  struct Workspace {
    Classifier classifier;

    [[nodiscard]] double partition_seconds() const noexcept {
      return classifier.stats().partition_seconds;
    }
    [[nodiscard]] double em_seconds() const noexcept {
      return classifier.partition_policy().em_seconds();
    }
  };

  /// Node i's restart stream is Rng::derive(config.seed, i) — the same
  /// derivation as make_gm_nodes, so the engines are interchangeable on
  /// a given seed.
  GmScaleProtocol(std::size_t dim, std::size_t num_nodes,
                  const NetworkConfig& config,
                  const em::ReductionOptions& reduction = {})
      : dim_(dim),
        num_nodes_(num_nodes),
        config_(config),
        reduction_(reduction) {
    DDC_EXPECTS(dim_ >= 1);
    rngs_.reserve(num_nodes_);
    for (sim::NodeId i = 0; i < num_nodes_; ++i) {
      rngs_.push_back(stats::Rng::derive(config_.seed, i));
    }
  }

  [[nodiscard]] std::size_t k() const noexcept { return config_.k; }
  [[nodiscard]] std::int64_t quanta_per_unit() const noexcept {
    return config_.quanta_per_unit;
  }
  [[nodiscard]] std::size_t summary_doubles() const noexcept {
    return dim_ + dim_ * dim_;
  }

  [[nodiscard]] Workspace make_workspace(std::size_t /*max_collections*/) const {
    // Seed value is irrelevant: receive swaps the node's stream in before
    // any draw happens.
    return Workspace{Classifier(linalg::Vector(dim_),
                                partition::EmPartition(stats::Rng(0), reduction_),
                                node_options(config_, 0, num_nodes_))};
  }

  /// Algorithm 1, lines 8–11, for node i on the scratch classifier.
  void receive(Workspace& w, sim::NodeId i, sim::SoaRow own,
               const sim::SoaInbox& inbox) {
    Classifier& scratch = w.classifier;
    scratch.mutable_classification().collections().clear();
    sim::unpack_row(*this, own.view(), scratch.mutable_classification());
    Classifier::Message combined;
    inbox.for_each(
        [&](sim::SoaRowView slot) { sim::unpack_row(*this, slot, combined); });
    scratch.partition_policy().rng() = rngs_[i];
    scratch.receive(std::move(combined));
    rngs_[i] = scratch.partition_policy().rng();
    DDC_ASSERT(!scratch.classification().empty());
    sim::pack_row(*this, scratch.classification(), own);
  }

  void pack(const Summary& summary, double* out) const {
    DDC_ASSERT(summary.dim() == dim_);
    std::copy_n(summary.mean().data().data(), dim_, out);
    std::copy_n(summary.cov().data().data(), dim_ * dim_, out + dim_);
  }

  [[nodiscard]] Summary unpack(const double* in) const {
    linalg::Vector mean(std::vector<double>(in, in + dim_));
    linalg::Matrix cov(dim_, dim_);
    for (std::size_t r = 0; r < dim_; ++r) {
      for (std::size_t c = 0; c < dim_; ++c) {
        cov(r, c) = in[dim_ + r * dim_ + c];
      }
    }
    // A packed covariance is bitwise symmetric, so the constructor's
    // symmetrize pass ((a+a)/2 per entry) reproduces it exactly — the
    // round-trip stays bit-identical.
    return stats::Gaussian(std::move(mean), std::move(cov));
  }

 private:
  std::size_t dim_;
  std::size_t num_nodes_;
  NetworkConfig config_;
  em::ReductionOptions reduction_;
  std::vector<stats::Rng> rngs_;  // node i's EM restart stream
};

/// Centroid network on the SoA scale engine (the 10⁵–10⁶ node backend).
/// Aux-vector tracking is not representable in the pools.
[[nodiscard]] inline sim::SoaRoundEngine<CentroidScaleProtocol>
make_centroid_scale_engine(sim::Topology topology,
                           const std::vector<linalg::Vector>& inputs,
                           const NetworkConfig& net = {},
                           const sim::RoundRunnerOptions& options = {}) {
  DDC_EXPECTS(!inputs.empty());
  DDC_EXPECTS(!net.track_aux);
  CentroidScaleProtocol protocol(inputs.front().dim(), net);
  return sim::SoaRoundEngine<CentroidScaleProtocol>(
      std::move(topology), std::move(protocol), options,
      [&inputs](sim::NodeId i) {
        return summaries::CentroidPolicy::val_to_summary(inputs[i]);
      });
}

/// GM network on the SoA scale engine (see make_centroid_scale_engine).
[[nodiscard]] inline sim::SoaRoundEngine<GmScaleProtocol>
make_gm_scale_engine(sim::Topology topology,
                     const std::vector<linalg::Vector>& inputs,
                     const NetworkConfig& net = {},
                     const sim::RoundRunnerOptions& options = {},
                     const em::ReductionOptions& reduction = {}) {
  DDC_EXPECTS(!inputs.empty());
  DDC_EXPECTS(!net.track_aux);
  GmScaleProtocol protocol(inputs.front().dim(), inputs.size(), net,
                           reduction);
  return sim::SoaRoundEngine<GmScaleProtocol>(
      std::move(topology), std::move(protocol), options,
      [&inputs](sim::NodeId i) {
        return summaries::GaussianPolicy::val_to_summary(inputs[i]);
      });
}

}  // namespace ddc::gossip

namespace ddc::sim {
// Re-exports, matching the runner factories' convention (runners.hpp).
using gossip::make_centroid_scale_engine;
using gossip::make_gm_scale_engine;
}  // namespace ddc::sim
