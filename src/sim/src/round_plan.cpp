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
      req_counts_(num_nodes, 0),
      req_offsets_(num_nodes + 1, 0),
      req_initiators_(num_nodes, 0) {
  DDC_EXPECTS(crash_probability_ >= 0.0 && crash_probability_ <= 1.0);
}

// ddcverify: hotpath
void RoundPlan::plan(const Topology& topology) {
  DDC_EXPECTS(topology.num_nodes() == n_);
  const bool replies = wants_reply();
  std::fill(targets_.begin(), targets_.end(), kNoTarget);
  if (replies) {
    std::fill(req_counts_.begin(), req_counts_.end(), std::size_t{0});
  }
  for (NodeId i = 0; i < n_; ++i) {
    if (!alive_[i]) continue;
    const std::optional<NodeId> target =
        selector_.pick(topology, i, alive_, avoid_crashed_, env_rng_);
    if (!target) continue;
    targets_[i] = *target;
    // A crashed contact cannot answer (reachable only under
    // drop_at_crashed); the request simply vanishes.
    if (replies && alive_[*target]) ++req_counts_[*target];
  }
  if (replies) {
    // Counting sort into the CSR: filling ascending by initiator
    // reproduces a per-responder push_back in node order.
    req_offsets_[0] = 0;
    for (NodeId j = 0; j < n_; ++j) {
      req_offsets_[j + 1] = req_offsets_[j] + req_counts_[j];
    }
    for (NodeId j = 0; j < n_; ++j) req_counts_[j] = req_offsets_[j];
    for (NodeId i = 0; i < n_; ++i) {
      const NodeId target = targets_[i];
      if (target == kNoTarget || !alive_[target]) continue;
      req_initiators_[req_counts_[target]++] = i;
    }
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
