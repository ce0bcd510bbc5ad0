// Centroid summaries — the paper's in-line example (Algorithm 2).
//
// A collection is summarized by its centroid (the weighted average of its
// values); the summary domain S equals the value domain R^d and dS is the
// L2 distance between centroids, which satisfies requirement R1 (the paper
// cites its technical report for the proof; our property tests validate it
// statistically).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/core/collection.hpp>
#include <ddc/linalg/kernels.hpp>
#include <ddc/linalg/vector.hpp>

namespace ddc::summaries {

/// SummaryPolicy for centroid classification (k-means-style).
struct CentroidPolicy {
  using Value = linalg::Vector;
  using Summary = linalg::Vector;

  /// Summaries are plain Euclidean points and `distance` is the L2
  /// metric, so GreedyDistancePartition may pack them into a flat
  /// row-major buffer and fill its distance matrix through the batched
  /// (lanewise-SIMD, bit-exact) linalg::simd distance kernel.
  static constexpr bool kPackedEuclideanSummary = true;

  /// Algorithm 2, valToSummary: the centroid of {⟨val, 1⟩} is val itself.
  [[nodiscard]] static Summary val_to_summary(const Value& value) {
    return value;
  }

  /// Algorithm 2, mergeSet: the weighted average of the part centroids.
  /// Scale-invariant in the weights (R3) and equal to the centroid of the
  /// merged value multiset (R4).
  [[nodiscard]] static Summary merge_set(
      const std::vector<core::WeightedSummary<Summary>>& parts);

  /// mergeSet on packed centroids, in the fixed-dimension kernel D (see
  /// linalg::kernels::dispatch_dim): `for_each_part(visit)` must call
  /// `visit(weight, row)` once per part, in part order, each time it is
  /// invoked (twice here). Writes Σ (wᵢ / Σw) · rowᵢ, accumulated from
  /// zero in part order, to the d doubles at `out`, which must not alias
  /// a part. merge_set is this function over Vector parts, so the packed
  /// and object paths share one arithmetic.
  template <std::size_t D, typename ForEachPart>
  static void merge_rows(std::size_t d, ForEachPart&& for_each_part,
                         double* out) {
    double total = 0.0;
    for_each_part([&](double weight, const double*) {
      DDC_EXPECTS(weight > 0.0);
      total += weight;
    });
    std::fill_n(out, d, 0.0);
    // In-place `out += scale * row` — no scaled temporary per part.
    for_each_part([&](double weight, const double* row) {
      linalg::kernels::add_scaled<D>(out, weight / total, row, d);
    });
  }

  /// dS: Euclidean distance between centroids.
  [[nodiscard]] static double distance(const Summary& a, const Summary& b) {
    return linalg::distance2(a, b);
  }

  /// The paper's f applied to a mixture-space vector: the centroid of the
  /// weighted input values. Used by tests/metrics to verify Lemma 1.
  [[nodiscard]] static Summary summarize_mixture(
      const std::vector<Value>& inputs, const linalg::Vector& aux);

  /// Approximate equality of summaries, for auditing.
  [[nodiscard]] static bool approx_equal(const Summary& a, const Summary& b,
                                         double tol);
};

}  // namespace ddc::summaries
