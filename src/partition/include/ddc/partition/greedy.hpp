// Greedy distance-based partition — the paper's Algorithm 2 `partition`,
// generalized to any summary policy.
//
// Starting from singleton groups, repeatedly merge the two groups whose
// *merged summaries* are closest under the policy's dS until at most k
// groups remain. For centroid summaries this is exactly Algorithm 2; for
// any other policy it is the natural lift. The one-quantum constraint of
// Section 4.1 is enforced by the engine, so policies only have to respect
// the k bound.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include <ddc/common/agglomerate.hpp>
#include <ddc/common/assert.hpp>
#include <ddc/core/policy.hpp>
#include <ddc/linalg/kernels.hpp>
#include <ddc/linalg/simd.hpp>

namespace ddc::partition {

/// Caller-owned working memory of GreedyDistancePartition::partition_rows:
/// the working centroids and weights (merged in place), one merge result,
/// and the agglomeration's buffers, which hold the returned grouping.
struct PackedPartitionBuffers {
  std::vector<double> rows;
  std::vector<double> weights;
  std::vector<double> merged;
  common::AgglomerationBuffers agglomeration;
};

/// PartitionPolicy: greedy closest-pair merging under SP::distance.
/// Stateless; copyable.
///
/// Runs on common::agglomerate_to_k — a cached distance matrix with
/// per-row nearest-neighbor tracking — so a partition of m collections
/// costs O(m²) distance evaluations instead of the transcription's O(m³)
/// full rescans, with bit-identical groupings (the tie-break argument
/// lives in agglomerate.hpp; NaiveGreedyDistancePartition below is the
/// reference it is tested against).
///
/// Policies that declare `kPackedEuclideanSummary` (their Summary is a
/// linalg::Vector and their distance is linalg::distance2) additionally
/// take a packed path: summaries are copied into one flat row-major m×d
/// buffer and the C(m,2) up-front distance-matrix fill runs through
/// linalg::simd::batch_distance_kernel(), 4 distances per AVX2 pass
/// where available. Every tier of that kernel is bit-identical to the
/// scalar kernels::distance2 — which is itself a transcription of
/// linalg::distance2's accumulation order — so the grouping is
/// unchanged bit for bit (greedy_partition_property_test pits the
/// packed path against the naive reference directly). The packed path is
/// also public as partition_rows, which the SoA engine's centroid receive
/// runs straight on its pool rows.
template <core::SummaryPolicy SP>
struct GreedyDistancePartition {
  using Summary = typename SP::Summary;

  /// The packed path on raw rows, in the fixed-dimension kernel D (see
  /// linalg::kernels::dispatch_dim): groups m summaries given as m×d
  /// row-major `rows` with weights `weights`. Neither input is modified.
  /// The grouping lives in `buffers` until their next use; with buffers
  /// kept across calls it allocates nothing once it has seen its largest
  /// m. Requires SP::kPackedEuclideanSummary and SP::merge_rows.
  // ddcverify: hotpath
  template <std::size_t D>
  static common::GroupLists& partition_rows(const double* rows,
                                            const double* weights,
                                            std::size_t m, std::size_t d,
                                            std::size_t k,
                                            PackedPartitionBuffers& buffers) {
    buffers.rows.assign(rows, rows + m * d);
    buffers.weights.assign(weights, weights + m);
    buffers.merged.resize(d);
    double* const work = buffers.rows.data();
    double* const w = buffers.weights.data();
    double* const merged = buffers.merged.data();
    const auto row = [&](std::size_t i) { return work + i * d; };
    const linalg::simd::DistanceBatchFn fill =
        linalg::simd::batch_distance_kernel();
    return common::agglomerate_to_k(
        m, k,
        [&](std::size_t a, std::size_t b) {
          // Post-merge refresh distances: one pair at a time off the
          // packed rows — kernels::distance2 is bit-identical to
          // SP::distance (linalg::distance2) on the same components.
          return linalg::kernels::distance2<D>(row(a), row(b), d);
        },
        [&](std::size_t a, std::size_t b) {
          SP::template merge_rows<D>(
              d,
              [&](auto&& visit) {
                visit(w[a], row(a));
                visit(w[b], row(b));
              },
              merged);
          std::copy_n(merged, d, row(a));
          w[a] = w[a] + w[b];
        },
        [&](std::size_t a, std::size_t count, double* out) {
          fill(row(a), row(a + 1), count, out, d);
        },
        buffers.agglomeration);
  }

  [[nodiscard]] core::Grouping partition(
      const std::vector<core::WeightedSummary<Summary>>& collections,
      std::size_t k) const {
    if constexpr (requires { SP::kPackedEuclideanSummary; }) {
      if (packable(collections)) return partition_packed(collections, k);
    }
    std::vector<core::WeightedSummary<Summary>> merged(collections.begin(),
                                                       collections.end());
    return common::agglomerate_to_k(
        merged.size(), k,
        [&](std::size_t a, std::size_t b) {
          return SP::distance(merged[a].summary, merged[b].summary);
        },
        [&](std::size_t a, std::size_t b) {
          merged[a] = core::WeightedSummary<Summary>{
              SP::merge_set({merged[a], merged[b]}),
              merged[a].weight + merged[b].weight};
        });
  }

 private:
  /// The packed path needs one uniform row width; mixed-dimension
  /// inputs (never produced by the protocol, but legal for the API)
  /// fall back to the generic path.
  [[nodiscard]] static bool packable(
      const std::vector<core::WeightedSummary<Summary>>& collections) {
    if (collections.empty()) return false;
    const std::size_t d = collections.front().summary.dim();
    if (d == 0) return false;
    for (const auto& c : collections) {
      if (c.summary.dim() != d) return false;
    }
    return true;
  }

  [[nodiscard]] core::Grouping partition_packed(
      const std::vector<core::WeightedSummary<Summary>>& collections,
      std::size_t k) const {
    const std::size_t m = collections.size();
    const std::size_t d = collections.front().summary.dim();
    std::vector<double> rows(m * d);
    std::vector<double> weights(m);
    for (std::size_t i = 0; i < m; ++i) {
      std::copy_n(collections[i].summary.data().data(), d, &rows[i * d]);
      weights[i] = collections[i].weight;
    }
    PackedPartitionBuffers buffers;
    return linalg::kernels::dispatch_dim(d, [&](auto dd) {
      return partition_rows<dd()>(rows.data(), weights.data(), m, d, k,
                                  buffers)
          .to_vectors();
    });
  }
};

/// The direct transcription of Algorithm 2: every round rescans all
/// pairs (O(m³) distance evaluations) and compacts with quadratic
/// erases. Retained as the reference the optimized policy must match
/// bit for bit — greedy_partition_property_test checks the equivalence
/// on randomized inputs, and the partition benchmarks use it as the
/// "before" side. Not for production use.
template <core::SummaryPolicy SP>
struct NaiveGreedyDistancePartition {
  using Summary = typename SP::Summary;

  [[nodiscard]] core::Grouping partition(
      const std::vector<core::WeightedSummary<Summary>>& collections,
      std::size_t k) const {
    DDC_EXPECTS(k >= 1);
    core::Grouping groups(collections.size());
    std::vector<core::WeightedSummary<Summary>> merged;
    merged.reserve(collections.size());
    for (std::size_t i = 0; i < collections.size(); ++i) {
      groups[i] = {i};
      merged.push_back(collections[i]);
    }

    while (groups.size() > k) {
      // Algorithm 2, lines 8–10: find and merge the closest pair.
      std::size_t best_a = 0;
      std::size_t best_b = 1;
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t a = 0; a + 1 < groups.size(); ++a) {
        for (std::size_t b = a + 1; b < groups.size(); ++b) {
          const double d = SP::distance(merged[a].summary, merged[b].summary);
          if (d < best) {
            best = d;
            best_a = a;
            best_b = b;
          }
        }
      }
      merged[best_a] = core::WeightedSummary<Summary>{
          SP::merge_set({merged[best_a], merged[best_b]}),
          merged[best_a].weight + merged[best_b].weight};
      groups[best_a].insert(groups[best_a].end(), groups[best_b].begin(),
                            groups[best_b].end());
      merged.erase(merged.begin() + static_cast<std::ptrdiff_t>(best_b));
      groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(best_b));
    }
    return groups;
  }
};

}  // namespace ddc::partition
