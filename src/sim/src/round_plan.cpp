#include <ddc/sim/round_plan.hpp>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>

#include <ddc/exec/parallel_for.hpp>

namespace ddc::sim {
namespace {

// plan()'s node passes split the nodes into this many contiguous blocks,
// a fixed number so each block's row count lives in a buffer sized once;
// parallel_for spreads the blocks over the pool's lanes.
constexpr std::size_t kBlocks = 64;

/// Calls body(b, begin, end) for every block b of [0, n) — block b is
/// [b·n/kBlocks, (b+1)·n/kBlocks) — on `pool`'s lanes; a null pool visits
/// the blocks in order on the calling thread.
template <typename Body>
void for_each_block(exec::ThreadPool* pool, std::size_t n, Body&& body) {
  exec::parallel_for(pool, kBlocks, [&](std::size_t b) {
    body(b, b * n / kBlocks, (b + 1) * n / kBlocks);
  });
}

/// Turns sums[b + 1] (block b's total) into block b's start, for b <
/// blocks.
void exclusive_scan(std::vector<std::size_t>& sums, std::size_t blocks) {
  sums[0] = 0;
  for (std::size_t b = 0; b < blocks; ++b) sums[b + 1] += sums[b];
}

/// The smallest shift s with fewer than kBlocks buckets x >> s over the
/// node ids x < n.
std::size_t bucket_shift(std::size_t n) {
  std::size_t s = 0;
  while ((std::max<std::size_t>(n, 1) - 1) >> s >= kBlocks) ++s;
  return s;
}

}  // namespace

RoundPlan::RoundPlan(std::size_t num_nodes, const RoundRunnerOptions& options)
    : n_(num_nodes),
      pattern_(options.pattern),
      crash_probability_(options.crash_probability),
      avoid_crashed_(options.crash_send_policy ==
                     CrashSendPolicy::avoid_crashed),
      env_rng_(stats::Rng::derive(options.seed, 0x524e445255ULL)),
      alive_(num_nodes, true),
      alive_count_(num_nodes),
      selector_(options.selection, num_nodes),
      targets_(num_nodes, kNoTarget),
      rows_(2 * num_nodes),
      init_offsets_(num_nodes + 1, 0),
      out_offsets_(num_nodes + 1, 0),
      out_rows_(2 * num_nodes, 0),
      in_offsets_(num_nodes + 1, 0),
      in_rows_(2 * num_nodes, 0),
      block_rows_(kBlocks + 1, 0),
      block_out_(kBlocks + 1, 0),
      bucket_shift_(bucket_shift(num_nodes)),
      num_buckets_(
          ((std::max<std::size_t>(num_nodes, 1) - 1) >> bucket_shift_) + 1),
      buckets_(kBlocks * kBlocks + 1, 0) {
  // sort_view packs a node id and a row id into one 64-bit word.
  DDC_EXPECTS(2 * num_nodes <= std::numeric_limits<std::uint32_t>::max());
  DDC_EXPECTS(crash_probability_ >= 0.0 && crash_probability_ <= 1.0);
}

// ddcverify: hotpath
void RoundPlan::plan(const Topology& topology, exec::ThreadPool* pool) {
  DDC_EXPECTS(topology.num_nodes() == n_);
  pick_targets(topology, pool);
  build_messages(pool);
}

// Every live node's target. While every node is alive, avoiding the dead
// filters nothing, so the pick skips the alive test; the eligible list
// is then the neighbor list and the draws are the same.
// ddcverify: hotpath
void RoundPlan::pick_targets(const Topology& topology,
                             exec::ThreadPool* pool) {
  const bool avoid = avoid_crashed_ && alive_count_ < n_;
  if (selector_.selection() == NeighborSelection::round_robin) {
    // Round-robin draws nothing — node i advances its own cursor only —
    // so its picks run on the lanes in one pass.
    for_each_block(pool, n_, [&](std::size_t, NodeId begin, NodeId end) {
      for (NodeId i = begin; i < end; ++i) {
        if (!alive_[i]) {
          targets_[i] = kNoTarget;
          continue;
        }
        targets_[i] = selector_.pick(topology, i, alive_, avoid, env_rng_)
                          .value_or(kNoTarget);
      }
    });
    return;
  }
  // A uniform pick in three passes, of which only the second touches the
  // stream: (1) count each live node's eligible neighbors, (2) draw
  // uniform_index(count) for each node in node order, (3) resolve the
  // draws to neighbor ids. targets_[i] holds node i's count, then its
  // draw, then its target (kNoTarget from the draw on for a dead node or
  // one without an eligible neighbor). Without the alive filter the
  // count is the degree, which the draw pass reads itself.
  if (avoid) {
    for_each_block(pool, n_, [&](std::size_t, NodeId begin, NodeId end) {
      for (NodeId i = begin; i < end; ++i) {
        targets_[i] =
            alive_[i]
                ? NeighborSelector::eligible_count(topology, i, alive_, true)
                : 0;
      }
    });
  }
  for (NodeId i = 0; i < n_; ++i) {
    const std::size_t count =
        avoid ? targets_[i] : (alive_[i] ? topology.degree(i) : 0);
    targets_[i] = count == 0 ? kNoTarget : env_rng_.uniform_index(count);
  }
  for_each_block(pool, n_, [&](std::size_t, NodeId begin, NodeId end) {
    for (NodeId i = begin; i < end; ++i) {
      if (targets_[i] == kNoTarget) continue;
      targets_[i] = NeighborSelector::eligible_at(topology, i, alive_, avoid,
                                                  targets_[i]);
    }
  });
}

// Rows come in initiator order: each block counts its rows, a prefix sum
// over the blocks gives each its first row, and the blocks fill in
// parallel. Of the two views only one needs a sort: under push every
// row is its initiator's forward, so outgoing is the table itself, and
// under pull every row is the reply to its initiator, so incoming is.
// Push-pull sorts incoming and derives outgoing from it. Sorting both
// views with sort_view instead takes a third 2n staging array: measured
// on a 4-core Xeon, peak RSS of the 4-shard 20k-node cluster rose from
// 71.9 to 73.2 MiB (higher in 10 of 10 runs), and 100k-node centroid
// plan time on 4 lanes went 2.2 -> 2.5 ms per round under push and
// 6.1 -> 5.2 ms under push-pull with 2% crashes (medians of 10 runs).
// ddcverify: hotpath
void RoundPlan::build_messages(exec::ThreadPool* pool) {
  for_each_block(pool, n_, [&](std::size_t b, NodeId begin, NodeId end) {
    std::size_t rows = 0;
    for (NodeId i = begin; i < end; ++i) {
      rows += (has_forward(i) ? 1 : 0) + (has_reply(i) ? 1 : 0);
    }
    block_rows_[b + 1] = rows;
  });
  exclusive_scan(block_rows_, kBlocks);
  num_rows_ = block_rows_[kBlocks];
  init_offsets_[n_] = num_rows_;
  const bool pull = pattern_ == GossipPattern::pull;
  NodeId PlannedMessage::*const group =
      pull ? &PlannedMessage::from : &PlannedMessage::to;
  // The fill also counts each block's rows per bucket of the sorted view.
  for_each_block(pool, n_, [&](std::size_t b, NodeId begin, NodeId end) {
    std::array<std::size_t, kBlocks> counts{};
    std::size_t r = block_rows_[b];
    const auto add = [&](NodeId from, NodeId to, MessageKind kind) {
      rows_[r] = {from, to, kind};
      ++counts[rows_[r++].*group >> bucket_shift_];
    };
    for (NodeId i = begin; i < end; ++i) {
      init_offsets_[i] = r;
      const NodeId target = targets_[i];
      if (has_forward(i)) add(i, target, MessageKind::forward);
      if (has_reply(i)) add(target, i, MessageKind::reply);
    }
    for (std::size_t k = 0; k < num_buckets_; ++k) {
      buckets_[k * kBlocks + b + 1] = counts[k];
    }
  });
  if (pull) {
    sort_view(pool, group, out_offsets_, out_rows_, in_rows_);
    identity_view(pool, in_offsets_, in_rows_);
  } else {
    sort_view(pool, group, in_offsets_, in_rows_, out_rows_);
    if (pattern_ == GossipPattern::push) {
      identity_view(pool, out_offsets_, out_rows_);
    } else {
      derive_outgoing(pool);
    }
  }
}

// A stable counting sort of the rows by `group` into `view`, in two
// parallel steps in which no two lanes share a counter. Group g lies in
// bucket g >> bucket_shift_, and buckets_ holds each row block's row
// count per bucket, bucket-major; a prefix sum turns them into each
// (bucket, block) slice's start.
//   1. Every row block copies its rows, in row order, into its slice of
//      each bucket in `staging` (packed as group << 32 | row), so a
//      bucket lists its rows ascending.
//   2. Every bucket — a contiguous range of groups, and the contiguous
//      range of view entries they fill — counts its rows per group,
//      turns the counts into group ends by a prefix sum from the
//      bucket's start, then walks its rows backwards moving each group's
//      cursor down to its start, so every group lists its rows ascending.
// On any number of lanes this is the view one sequential sort produces.
// ddcverify: hotpath
void RoundPlan::sort_view(exec::ThreadPool* pool,
                          NodeId PlannedMessage::*group,
                          std::vector<std::size_t>& offsets,
                          std::vector<std::size_t>& view,
                          std::vector<std::size_t>& staging) {
  constexpr std::size_t kRowMask = 0xffffffff;
  exclusive_scan(buckets_, num_buckets_ * kBlocks);
  for_each_block(pool, n_, [&](std::size_t b, NodeId, NodeId) {
    std::array<std::size_t, kBlocks> cursor{};
    for (std::size_t k = 0; k < num_buckets_; ++k) {
      cursor[k] = buckets_[k * kBlocks + b];
    }
    for (std::size_t r = block_rows_[b]; r < block_rows_[b + 1]; ++r) {
      const NodeId g = rows_[r].*group;
      staging[cursor[g >> bucket_shift_]++] = g << 32 | r;
    }
  });
  exec::parallel_for(pool, num_buckets_, [&](std::size_t k) {
    const NodeId lo = k << bucket_shift_;
    const NodeId hi = std::min(n_, (k + 1) << bucket_shift_);
    const std::size_t first = buckets_[k * kBlocks];
    const std::size_t last = buckets_[(k + 1) * kBlocks];
    for (NodeId g = lo; g < hi; ++g) offsets[g] = 0;
    for (std::size_t p = first; p < last; ++p) ++offsets[staging[p] >> 32];
    std::size_t end = first;
    for (NodeId g = lo; g < hi; ++g) offsets[g] = end += offsets[g];
    for (std::size_t p = last; p-- > first;) {
      view[--offsets[staging[p] >> 32]] = staging[p] & kRowMask;
    }
  });
  offsets[n_] = num_rows_;
}

// The view in which every row is in its initiator's group.
// ddcverify: hotpath
void RoundPlan::identity_view(exec::ThreadPool* pool,
                              std::vector<std::size_t>& offsets,
                              std::vector<std::size_t>& view) {
  for_each_block(pool, n_, [&](std::size_t b, NodeId begin, NodeId end) {
    for (NodeId i = begin; i < end; ++i) offsets[i] = init_offsets_[i];
    for (std::size_t r = block_rows_[b]; r < block_rows_[b + 1]; ++r) {
      view[r] = r;
    }
  });
  offsets[n_] = num_rows_;
}

// Push-pull: node x sends its own forward and, while alive, one reply
// per forward it receives — the row right after that forward, since an
// initiator's reply follows its forward. A block-wise prefix sum of
// these counts places the groups, and every node fills its own,
// ascending.
// ddcverify: hotpath
void RoundPlan::derive_outgoing(exec::ThreadPool* pool) {
  const auto replies_owed = [&](NodeId x) -> std::size_t {
    if (!alive_[x]) return 0;
    return in_offsets_[x + 1] - in_offsets_[x] - (has_reply(x) ? 1 : 0);
  };
  for_each_block(pool, n_, [&](std::size_t b, NodeId begin, NodeId end) {
    std::size_t total = 0;
    for (NodeId x = begin; x < end; ++x) {
      total += (has_forward(x) ? 1 : 0) + replies_owed(x);
    }
    block_out_[b + 1] = total;
  });
  exclusive_scan(block_out_, kBlocks);
  for_each_block(pool, n_, [&](std::size_t b, NodeId begin, NodeId end) {
    std::size_t p = block_out_[b];
    for (NodeId x = begin; x < end; ++x) {
      out_offsets_[x] = p;
      bool own = has_forward(x);
      const std::size_t own_row = init_offsets_[x];
      if (replies_owed(x) > 0) {
        for (const std::size_t r : incoming(x)) {
          if (rows_[r].kind != MessageKind::forward) continue;
          if (own && own_row < r) {
            out_rows_[p++] = own_row;
            own = false;
          }
          out_rows_[p++] = r + 1;
        }
      }
      if (own) out_rows_[p++] = own_row;
    }
  });
  out_offsets_[n_] = num_rows_;
}

std::span<const NodeId> RoundPlan::crash() {
  crashed_.clear();
  if (crash_probability_ <= 0.0) return {};
  for (NodeId i = 0; i < n_; ++i) {
    if (alive_[i] && env_rng_.bernoulli(crash_probability_)) {
      alive_[i] = false;
      crashed_.push_back(i);
    }
  }
  alive_count_ -= crashed_.size();
  return crashed_;
}

}  // namespace ddc::sim
