#include <ddc/sim/round_plan.hpp>

#include <algorithm>

namespace ddc::sim {

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
      in_rows_(2 * num_nodes, 0) {
  DDC_EXPECTS(crash_probability_ >= 0.0 && crash_probability_ <= 1.0);
}

// ddcverify: hotpath
void RoundPlan::plan(const Topology& topology) {
  DDC_EXPECTS(topology.num_nodes() == n_);
  std::fill(targets_.begin(), targets_.end(), kNoTarget);
  for (NodeId i = 0; i < n_; ++i) {
    if (!alive_[i]) continue;
    const std::optional<NodeId> target =
        selector_.pick(topology, i, alive_, avoid_crashed_, env_rng_);
    if (target) targets_[i] = *target;
  }
  build_messages();
}

// Appends the rows in initiator order, counting each node's outgoing
// and incoming rows on the way, then lays both views out by a stable
// counting sort: after the prefix sums offsets[j] marks the end of group
// j, and the fill walks the rows backwards moving each group's cursor
// down to its start, so every group lists its rows ascending.
void RoundPlan::build_messages() {
  // Initiators ship half their state (push, push-pull); contacts answer
  // with half of theirs (pull, push-pull).
  const bool sends = pattern_ != GossipPattern::pull;
  const bool replies = pattern_ != GossipPattern::push;
  std::fill(out_offsets_.begin(), out_offsets_.end(), std::size_t{0});
  std::fill(in_offsets_.begin(), in_offsets_.end(), std::size_t{0});
  num_rows_ = 0;
  const auto add = [&](NodeId from, NodeId to, MessageKind kind) {
    rows_[num_rows_++] = {from, to, kind};
    ++out_offsets_[from];
    ++in_offsets_[to];
  };
  for (NodeId i = 0; i < n_; ++i) {
    init_offsets_[i] = num_rows_;
    const NodeId target = targets_[i];
    if (target == kNoTarget) continue;
    if (sends) add(i, target, MessageKind::forward);
    // A crashed contact cannot answer (reachable only under
    // drop_at_crashed); the request simply vanishes.
    if (replies && alive_[target]) add(target, i, MessageKind::reply);
  }
  init_offsets_[n_] = num_rows_;
  for (NodeId j = 1; j <= n_; ++j) {
    out_offsets_[j] += out_offsets_[j - 1];
    in_offsets_[j] += in_offsets_[j - 1];
  }
  for (std::size_t r = num_rows_; r-- > 0;) {
    out_rows_[--out_offsets_[rows_[r].from]] = r;
    in_rows_[--in_offsets_[rows_[r].to]] = r;
  }
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
