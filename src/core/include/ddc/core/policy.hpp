// Instantiation points of the generic algorithm (paper Section 4).
//
// Algorithm 1 is generic in a summary domain S and three functions:
// valToSummary, mergeSet, and partition, subject to requirements R1–R4.
// We express the instantiation as two C++20 concepts:
//
//   * SummaryPolicy  — S, valToSummary, mergeSet, and the pseudo-metric dS.
//     R2 (values map to their summaries) is the definition of
//     val_to_summary; R3 (scale invariance) and R4 (merge commutes with
//     summarization) cannot be captured in the type system and are
//     enforced by the parameterized property tests in
//     tests/summaries/requirements_test.cpp. R1 (Lipschitz w.r.t. the
//     mixture metric) is validated statistically there as well.
//
//   * PartitionPolicy — the merge-decision heuristic. The engine, not the
//     policy, enforces the two structural constraints of Section 4.1
//     (at most k groups; no singleton group holding exactly one quantum).
#pragma once

#include <concepts>
#include <cstddef>
#include <vector>

#include <ddc/common/agglomerate.hpp>
#include <ddc/common/assert.hpp>
#include <ddc/core/collection.hpp>

namespace ddc::core {

/// Grouping produced by a partition policy: `groups[x]` lists the indices
/// of the input collections merged into output collection x. A valid
/// grouping is a partition of {0, …, input_size−1} into nonempty groups.
using Grouping = std::vector<std::vector<std::size_t>>;

/// An instantiation's summary domain and summary-manipulation functions.
template <typename P>
concept SummaryPolicy = requires(
    const typename P::Value& value,
    const std::vector<WeightedSummary<typename P::Summary>>& parts,
    const typename P::Summary& s) {
  typename P::Value;
  typename P::Summary;
  /// valToSummary: the summary of the one-value collection {⟨value, 1⟩}.
  { P::val_to_summary(value) } -> std::convertible_to<typename P::Summary>;
  /// mergeSet: the summary of the union of weighted collections.
  /// Must satisfy R3 (invariant under scaling all weights) and R4
  /// (equals summarizing the merged value multiset).
  { P::merge_set(parts) } -> std::convertible_to<typename P::Summary>;
  /// dS: pseudo-metric on summaries (used by convergence metrics and by
  /// the engine's fallback re-homing of one-quantum singleton groups).
  { P::distance(s, s) } -> std::convertible_to<double>;
};

/// A merge-decision heuristic for Algorithm 1's partition step. May be
/// stateful (e.g. hold an RNG for EM restarts); the engine calls it with
/// the combined collection set and the bound k and expects *some* grouping
/// with at most k groups — structural constraints are re-checked and, for
/// the one-quantum rule, repaired by the engine.
template <typename P, typename Summary>
concept PartitionPolicy = requires(
    P& p, const std::vector<WeightedSummary<Summary>>& collections,
    std::size_t k) {
  { p.partition(collections, k) } -> std::convertible_to<Grouping>;
};

/// Checks that `grouping` is a partition of {0, …, size−1} into nonempty
/// groups. Used by the engine (as a contract on policies) and by tests.
[[nodiscard]] bool is_valid_grouping(const Grouping& grouping, std::size_t size);

/// A core::Grouping seen through common::GroupLists' interface, so one
/// re-homing rule repairs both the classifier's policy output and the
/// packed receive's linked groups.
class GroupingLists {
 public:
  explicit GroupingLists(Grouping& groups) : groups_(groups) {}

  [[nodiscard]] std::size_t size() const noexcept { return groups_.size(); }
  [[nodiscard]] std::size_t head(std::size_t g) const {
    return groups_[g].front();
  }
  [[nodiscard]] std::size_t members(std::size_t g) const {
    return groups_[g].size();
  }
  template <typename Fn>
  void for_each_member(std::size_t g, Fn&& fn) const {
    for (const std::size_t j : groups_[g]) fn(j);
  }
  void merge(std::size_t into, std::size_t from) {
    DDC_EXPECTS(into < size() && from < size() && into != from);
    groups_[into].insert(groups_[into].end(), groups_[from].begin(),
                         groups_[from].end());
    groups_.erase(groups_.begin() + static_cast<std::ptrdiff_t>(from));
  }

 private:
  Grouping& groups_;
};

/// Constraint (2) of Section 4.1: every collection of weight exactly q
/// must be merged with at least one other. Any group that is a lone
/// collection with `single_quantum(j)` is repaired by moving it into the
/// group whose members are nearest under `distance(lone, member)` (the
/// proof only needs *some* merge to happen; nearest keeps the repair
/// quality-neutral). Ties go to the first group, members scanned in
/// group order. `Groups` is common::GroupLists or GroupingLists. Returns
/// the number of collections re-homed. Both receive paths —
/// GenericClassifier and the SoA engine's packed centroid receive — call
/// this one rule.
template <typename Groups, typename SingleQuantumFn, typename DistanceFn>
std::size_t rehome_quantum_singletons(Groups& groups,
                                      SingleQuantumFn&& single_quantum,
                                      DistanceFn&& distance) {
  std::size_t rehomed = 0;
  if (groups.size() <= 1) return rehomed;  // nothing to re-home into
  for (std::size_t g = 0; g < groups.size();) {
    if (groups.members(g) != 1 || !single_quantum(groups.head(g))) {
      ++g;
      continue;
    }
    const std::size_t lone = groups.head(g);
    // Find the nearest collection in any other group.
    std::size_t best_group = groups.size();
    double best_distance = 0.0;
    for (std::size_t h = 0; h < groups.size(); ++h) {
      if (h == g) continue;
      groups.for_each_member(h, [&](std::size_t j) {
        const double dist = distance(lone, j);
        if (best_group == groups.size() || dist < best_distance) {
          best_group = h;
          best_distance = dist;
        }
      });
    }
    DDC_ASSERT(best_group < groups.size());
    groups.merge(best_group, g);
    ++rehomed;
    // Do not advance g: the group now at position g is unexamined.
  }
  return rehomed;
}

}  // namespace ddc::core
