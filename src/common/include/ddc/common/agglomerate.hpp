// Greedy closest-pair agglomeration with a cached distance matrix.
//
// Both the partition policy (paper Algorithm 2) and the greedy mixture
// reducers repeatedly merge the closest pair of a working set until at
// most k groups remain. Transcribed directly, each round rescans every
// pair — O(m³) distance evaluations for m inputs — even though a merge
// only invalidates the distances involving the merged element. This
// helper keeps every pairwise distance in a cache and tracks each row's
// nearest neighbor, so a full run costs O(m²) distance evaluations:
// C(m,2) up front plus (live−1) refreshed entries per merge.
//
// Bit-identity contract: the grouping (and therefore every downstream
// summary, RNG draw, and classification) is identical to the naive
// rescan, not just equivalent. The naive loop scans pairs (a, b), a < b,
// in lexicographic order with a strict `<` update, so ties go to the
// lexicographically first pair and NaN/∞ distances never win (an all-∞
// round falls back to the first pair). Three observations make the cached
// version exact:
//
//   1. Merges happen in place at the lower slot and removals preserve
//      relative order, so the naive compacted positions are always the
//      live slots in ascending slot order; lexicographic position order
//      IS ascending slot order.
//   2. Each row's tracked nearest neighbor is its minimum under the same
//      strict-`<` ascending scan (earliest column wins ties); the global
//      winner is the strict-`<` ascending scan over row minima (earliest
//      row wins ties). Composing the two reproduces the lexicographic
//      pair scan exactly.
//   3. `distance` is pure, so a cached value equals a recomputed one, and
//      arguments are always passed (lower slot, higher slot) — the same
//      order the naive scan evaluates them in — so even a floating-point-
//      asymmetric distance sees identical argument order.
//
// The equivalence is enforced mechanically by greedy_partition_property_
// test (optimized vs naive on randomized inputs including exact ties) and
// by the hot-path golden digests. See DESIGN.md § Hot paths.
//
// The groups live in a GroupLists (linked member lists), and every
// working buffer is caller-owned (AgglomerationBuffers), so a caller that
// keeps its buffers across calls — the SoA engine's packed centroid
// receive — agglomerates without allocating. The allocating signature
// wraps that form; there is one agglomeration.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include <ddc/common/assert.hpp>

namespace ddc::common {

/// Group membership: original element indices, one vector per surviving
/// group. Structurally identical to core::Grouping.
using AgglomerationGroups = std::vector<std::vector<std::size_t>>;

/// A grouping of the element slots {0, …, size−1}: an ordered list of
/// groups, each an ordered, singly linked member list. Folding one group
/// into another is O(1) in the members, and every buffer keeps its
/// capacity, so one object reused across calls stops allocating once it
/// has seen its largest size. Built by reset() and changed only by
/// merge(), it is always a partition of its slots.
class GroupLists {
 public:
  /// The member after the last one of a group.
  static constexpr std::size_t kEnd = static_cast<std::size_t>(-1);

  /// Singleton groups {0}, {1}, …, {size−1}, in ascending order.
  void reset(std::size_t size) {
    heads_.resize(size);
    next_.assign(size, kEnd);
    tail_.resize(size);
    sizes_.assign(size, 1);
    for (std::size_t i = 0; i < size; ++i) heads_[i] = tail_[i] = i;
  }

  /// Number of groups.
  [[nodiscard]] std::size_t size() const noexcept { return heads_.size(); }

  /// Each group's first member, in group order.
  [[nodiscard]] std::span<const std::size_t> heads() const noexcept {
    return heads_;
  }

  [[nodiscard]] std::size_t head(std::size_t g) const { return heads_[g]; }

  /// Number of members of group g.
  [[nodiscard]] std::size_t members(std::size_t g) const {
    return sizes_[heads_[g]];
  }

  /// Total number of members over all groups.
  [[nodiscard]] std::size_t member_count() const noexcept {
    std::size_t total = 0;
    for (const std::size_t h : heads_) total += sizes_[h];
    return total;
  }

  /// Calls `fn(member)` for group g's members in order.
  template <typename Fn>
  void for_each_member(std::size_t g, Fn&& fn) const {
    for (std::size_t j = heads_[g]; j != kEnd; j = next_[j]) fn(j);
  }

  /// Appends group `from`'s members to group `into`, in order, and
  /// removes group `from`; the groups after it move down one place.
  void merge(std::size_t into, std::size_t from) {
    DDC_EXPECTS(into < size() && from < size() && into != from);
    const std::size_t a = heads_[into];
    const std::size_t b = heads_[from];
    next_[tail_[a]] = b;
    tail_[a] = tail_[b];
    sizes_[a] += sizes_[b];
    heads_.erase(heads_.begin() + static_cast<std::ptrdiff_t>(from));
  }

  /// The grouping as one index vector per group.
  [[nodiscard]] AgglomerationGroups to_vectors() const {
    AgglomerationGroups out(size());
    for (std::size_t g = 0; g < size(); ++g) {
      out[g].reserve(members(g));
      for_each_member(g, [&](std::size_t j) { out[g].push_back(j); });
    }
    return out;
  }

 private:
  std::vector<std::size_t> heads_;  // group order
  std::vector<std::size_t> next_;   // by member
  std::vector<std::size_t> tail_;   // by head
  std::vector<std::size_t> sizes_;  // by head
};

/// Caller-owned working memory of agglomerate_to_k. Reusing one across
/// calls makes the agglomeration allocation-free once it has seen its
/// largest input; `groups` holds the last result.
struct AgglomerationBuffers {
  GroupLists groups;
  std::vector<double> dist;
  std::vector<double> nn_dist;
  std::vector<std::size_t> nn_slot;
};

/// Merge the closest pair under `distance` until at most `k` groups
/// remain. `distance(a, b)` is called with element slots a < b and must be
/// a pure function of the elements' current values; `merge(a, b)` must
/// fold element b into element a (slot b is never touched again).
/// `fill_row(a, count, out)` computes the initial upper-triangle row of
/// the distance cache — out[j] = distance(a, a+1+j) for j < count — and
/// must be bit-identical to calling `distance` per entry (callers with a
/// batched kernel, e.g. the packed centroid partition, hook it here; the
/// fill runs before any merge, so slots are still the original
/// contiguous indices). Returns the surviving groups, held in
/// `buffers.groups`, in ascending lowest-member order; each group's first
/// member is the slot its merges accumulated into. Requires k ≥ 1.
// ddcverify: hotpath
template <typename DistanceFn, typename MergeFn, typename RowFillFn>
GroupLists& agglomerate_to_k(std::size_t size, std::size_t k,
                             DistanceFn&& distance, MergeFn&& merge,
                             RowFillFn&& fill_row,
                             AgglomerationBuffers& buffers) {
  DDC_EXPECTS(k >= 1);
  GroupLists& groups = buffers.groups;
  groups.reset(size);
  if (size <= k) return groups;

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t invalid = size;

  // Live slots, always in ascending order (merges keep the lower slot):
  // the heads of the surviving groups.
  std::span<const std::size_t> live = groups.heads();

  // dist[a·size + b] caches distance(a, b) for live slots a < b; rows
  // additionally track their nearest neighbor (earliest column on ties).
  std::vector<double>& dist = buffers.dist;
  std::vector<double>& nn_dist = buffers.nn_dist;
  std::vector<std::size_t>& nn_slot = buffers.nn_slot;
  dist.assign(size * size, kInf);
  nn_dist.assign(size, kInf);
  nn_slot.assign(size, invalid);
  const auto cached = [&](std::size_t a, std::size_t b) -> double& {
    return dist[a * size + b];
  };

  // Initial fill: live slots are still 0..size-1, so each row's
  // upper-triangle entries are contiguous in the cache and fill_row can
  // write them in one batched call. The nearest-neighbor scan stays a
  // separate strict-< ascending pass — identical winners to a fused
  // fill-and-scan loop because it reads the same values in the same
  // order.
  for (std::size_t pa = 0; pa + 1 < live.size(); ++pa) {
    const std::size_t a = live[pa];
    fill_row(a, size - a - 1, &cached(a, a + 1));
    for (std::size_t pb = pa + 1; pb < live.size(); ++pb) {
      const std::size_t b = live[pb];
      const double d = cached(a, b);
      if (d < nn_dist[a]) {
        nn_dist[a] = d;
        nn_slot[a] = b;
      }
    }
  }

  // Recompute live[pa]'s nearest neighbor from the cache.
  const auto rescan = [&](std::size_t pa) {
    const std::size_t a = live[pa];
    nn_dist[a] = kInf;
    nn_slot[a] = invalid;
    for (std::size_t pb = pa + 1; pb < live.size(); ++pb) {
      const std::size_t b = live[pb];
      const double d = cached(a, b);
      if (d < nn_dist[a]) {
        nn_dist[a] = d;
        nn_slot[a] = b;
      }
    }
  };

  while (live.size() > k) {
    // Global closest pair = strict-< scan over row minima; the first live
    // pair is the fallback when nothing beats ∞ (matching the naive
    // scan's (0, 1) default).
    std::size_t best_p = 0;
    std::size_t best_a = live[0];
    std::size_t best_b = live[1];
    double best = kInf;
    for (std::size_t p = 0; p + 1 < live.size(); ++p) {
      const std::size_t a = live[p];
      if (nn_dist[a] < best) {
        best = nn_dist[a];
        best_p = p;
        best_a = a;
        best_b = nn_slot[a];
      }
    }

    merge(best_a, best_b);
    const auto b_at = std::find(
        live.begin() + static_cast<std::ptrdiff_t>(best_p), live.end(), best_b);
    groups.merge(best_p, static_cast<std::size_t>(b_at - live.begin()));
    live = groups.heads();

    // Refresh cached distances involving the merged slot, arguments in
    // ascending-slot order like the naive evaluation.
    for (const std::size_t x : live) {
      if (x == best_a) continue;
      if (x < best_a) {
        cached(x, best_a) = distance(x, best_a);
      } else {
        cached(best_a, x) = distance(best_a, x);
      }
    }

    // Repair row minima. Only three kinds of rows can change: the merged
    // row itself (all values fresh), rows whose minimum pointed at a slot
    // that changed or died, and rows x < best_a whose refreshed candidate
    // now beats (or position-ties) their tracked minimum.
    for (std::size_t p = 0; p < live.size(); ++p) {
      const std::size_t x = live[p];
      if (x == best_a) {
        rescan(p);
        continue;
      }
      if (x > best_a) {
        if (nn_slot[x] == best_b) rescan(p);
        continue;
      }
      if (nn_slot[x] == best_a || nn_slot[x] == best_b) {
        rescan(p);
        continue;
      }
      const double d = cached(x, best_a);
      if (d < nn_dist[x] || (d == nn_dist[x] && best_a < nn_slot[x])) {
        nn_dist[x] = d;
        nn_slot[x] = best_a;
      }
    }
  }

  return groups;
}

/// Allocating form: the same agglomeration on fresh buffers, returned as
/// one index vector per group.
template <typename DistanceFn, typename MergeFn, typename RowFillFn>
[[nodiscard]] AgglomerationGroups agglomerate_to_k(std::size_t size,
                                                   std::size_t k,
                                                   DistanceFn&& distance,
                                                   MergeFn&& merge,
                                                   RowFillFn&& fill_row) {
  AgglomerationBuffers buffers;
  return agglomerate_to_k(size, k, distance, merge, fill_row, buffers)
      .to_vectors();
}

/// Convenience overload: the initial row fill evaluates `distance` per
/// entry (the reference behavior the batched hook must match).
template <typename DistanceFn, typename MergeFn>
[[nodiscard]] AgglomerationGroups agglomerate_to_k(std::size_t size,
                                                   std::size_t k,
                                                   DistanceFn&& distance,
                                                   MergeFn&& merge) {
  return agglomerate_to_k(
      size, k, distance, std::forward<MergeFn>(merge),
      [&distance](std::size_t a, std::size_t count, double* out) {
        for (std::size_t j = 0; j < count; ++j) {
          out[j] = distance(a, a + 1 + j);
        }
      });
}

}  // namespace ddc::common
