// RoundPlan's message table on its own: row order, the three views and
// the membership rules, over {push, pull, push-pull} × {avoid_crashed,
// drop_at_crashed with crashes} × seeds on a sparse ER graph and a ring;
// and plan() on 1 to 4 lanes against a plain sequential planner.
// The engine golden digests pin the same facts only indirectly.
#include <ddc/sim/round_plan.hpp>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <ddc/exec/thread_pool.hpp>

#include <gtest/gtest.h>

namespace ddc::sim {
namespace {

constexpr std::size_t kNodes = 60;
constexpr std::size_t kRounds = 8;

struct Case {
  GossipPattern pattern;
  CrashSendPolicy policy;
  std::uint64_t seed;
  bool ring;
};

std::string describe(const Case& c) {
  return "pattern=" + std::to_string(static_cast<int>(c.pattern)) +
         " policy=" + std::to_string(static_cast<int>(c.policy)) +
         " seed=" + std::to_string(c.seed) + (c.ring ? " ring" : " er");
}

/// Runs every case of the matrix for kRounds planned rounds (with the
/// crash draws in between) and hands each planned round to `check`.
void for_each_planned_round(
    const std::function<void(const Case&, const RoundPlan&)>& check) {
  for (const GossipPattern pattern :
       {GossipPattern::push, GossipPattern::pull, GossipPattern::push_pull}) {
    for (const CrashSendPolicy policy :
         {CrashSendPolicy::avoid_crashed, CrashSendPolicy::drop_at_crashed}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        for (const bool ring : {false, true}) {
          const Case c{pattern, policy, seed, ring};
          SCOPED_TRACE(describe(c));
          stats::Rng graph_rng(seed);
          const Topology topology =
              ring ? Topology::ring(kNodes)
                   : Topology::erdos_renyi(kNodes, 0.08, graph_rng);
          RoundRunnerOptions options;
          options.pattern = pattern;
          options.crash_send_policy = policy;
          options.crash_probability =
              policy == CrashSendPolicy::drop_at_crashed ? 0.3 : 0.0;
          options.seed = seed;
          RoundPlan plan(kNodes, options);
          for (std::size_t round = 0; round < kRounds; ++round) {
            plan.plan(topology);
            check(c, plan);
            plan.crash();
          }
        }
      }
    }
  }
}

TEST(RoundPlan, RowsAreSortedByInitiatorThenKind) {
  for_each_planned_round([](const Case&, const RoundPlan& plan) {
    const auto rows = plan.messages();
    for (std::size_t r = 1; r < rows.size(); ++r) {
      EXPECT_LT(std::tuple(rows[r - 1].initiator(), rows[r - 1].kind),
                std::tuple(rows[r].initiator(), rows[r].kind));
    }
  });
}

TEST(RoundPlan, RowsFollowTheTargetsAndPatternRules) {
  for_each_planned_round([](const Case& c, const RoundPlan& plan) {
    std::size_t expected = 0;
    for (NodeId i = 0; i < kNodes; ++i) {
      const std::optional<NodeId> target = plan.target(i);
      const std::optional<std::size_t> fwd =
          plan.row(i, MessageKind::forward);
      const std::optional<std::size_t> reply = plan.row(i, MessageKind::reply);
      const bool want_fwd = target && c.pattern != GossipPattern::pull;
      const bool want_reply = target && c.pattern != GossipPattern::push &&
                              plan.alive(*target);
      EXPECT_EQ(fwd.has_value(), want_fwd) << "initiator " << i;
      EXPECT_EQ(reply.has_value(), want_reply) << "initiator " << i;
      if (fwd) {
        const PlannedMessage& m = plan.messages()[*fwd];
        EXPECT_EQ(m.kind, MessageKind::forward);
        EXPECT_EQ(m.from, i);
        EXPECT_EQ(m.to, *target);
        EXPECT_EQ(m.initiator(), i);
      }
      if (reply) {
        const PlannedMessage& m = plan.messages()[*reply];
        EXPECT_EQ(m.kind, MessageKind::reply);
        EXPECT_EQ(m.from, *target);
        EXPECT_EQ(m.to, i);
        EXPECT_EQ(m.initiator(), i);
      }
      expected += static_cast<std::size_t>(want_fwd) +
                  static_cast<std::size_t>(want_reply);
    }
    // The lookup reaches every row, so the table holds nothing else.
    EXPECT_EQ(plan.messages().size(), expected);
  });
}

TEST(RoundPlan, OutgoingViewsPartitionTheRowsAscendingByInitiator) {
  for_each_planned_round([](const Case&, const RoundPlan& plan) {
    const auto rows = plan.messages();
    std::vector<int> seen(rows.size(), 0);
    for (NodeId j = 0; j < kNodes; ++j) {
      const auto out = plan.outgoing(j);
      for (std::size_t k = 0; k < out.size(); ++k) {
        ASSERT_LT(out[k], rows.size());
        EXPECT_EQ(rows[out[k]].from, j);
        ++seen[out[k]];
        if (k > 0) {
          EXPECT_LT(rows[out[k - 1]].initiator(), rows[out[k]].initiator());
        }
      }
    }
    for (std::size_t r = 0; r < rows.size(); ++r) EXPECT_EQ(seen[r], 1);
  });
}

TEST(RoundPlan, IncomingViewsPartitionTheRowsInDeliveryOrder) {
  for_each_planned_round([](const Case&, const RoundPlan& plan) {
    const auto rows = plan.messages();
    std::vector<int> seen(rows.size(), 0);
    for (NodeId r = 0; r < kNodes; ++r) {
      const auto in = plan.incoming(r);
      for (std::size_t k = 0; k < in.size(); ++k) {
        ASSERT_LT(in[k], rows.size());
        EXPECT_EQ(rows[in[k]].to, r);
        ++seen[in[k]];
        if (k > 0) {
          EXPECT_LT(in[k - 1], in[k]);
        }
      }
    }
    for (std::size_t row = 0; row < rows.size(); ++row) {
      EXPECT_EQ(seen[row], 1);
    }
  });
}

TEST(RoundPlan, PushHasNoRepliesAndPullHasNoForwards) {
  std::size_t forwards = 0;
  std::size_t replies = 0;
  for_each_planned_round([&](const Case& c, const RoundPlan& plan) {
    for (const PlannedMessage& m : plan.messages()) {
      const bool forward = m.kind == MessageKind::forward;
      forwards += forward ? 1 : 0;
      replies += forward ? 0 : 1;
      if (c.pattern == GossipPattern::push) {
        EXPECT_TRUE(forward);
      }
      if (c.pattern == GossipPattern::pull) {
        EXPECT_FALSE(forward);
      }
    }
  });
  // Both kinds occur somewhere in the matrix (push-pull has both).
  EXPECT_GT(forwards, 0u);
  EXPECT_GT(replies, 0u);
}

TEST(RoundPlan, RepliesNeverComeFromTheDeadButForwardsMayGoToThem) {
  std::size_t forwards_to_dead = 0;
  for_each_planned_round([&](const Case& c, const RoundPlan& plan) {
    for (const PlannedMessage& m : plan.messages()) {
      EXPECT_TRUE(plan.alive(m.initiator()));
      if (m.kind == MessageKind::reply) {
        EXPECT_TRUE(plan.alive(m.from));
      } else if (!plan.alive(m.to)) {
        EXPECT_EQ(c.policy, CrashSendPolicy::drop_at_crashed);
        ++forwards_to_dead;
      }
    }
  });
  EXPECT_GT(forwards_to_dead, 0u);
}

/// Everything one planned round exposes, copied out: the targets, the
/// table, both views, the round's crashes and the environment stream's
/// next draw after them.
struct PlannedRound {
  std::vector<std::optional<NodeId>> targets;
  std::vector<std::tuple<NodeId, NodeId, MessageKind>> messages;
  std::vector<std::vector<std::size_t>> outgoing;
  std::vector<std::vector<std::size_t>> incoming;
  std::vector<NodeId> crashed;
  std::uint64_t next_draw = 0;

  bool operator==(const PlannedRound&) const = default;
};

/// Plans `rounds` rounds of `options` on `lanes` lanes (1: no pool).
std::vector<PlannedRound> plan_rounds(const Topology& topology,
                                      const RoundRunnerOptions& options,
                                      std::size_t lanes, std::size_t rounds) {
  const std::unique_ptr<exec::ThreadPool> pool = exec::make_lane_pool(lanes);
  const std::size_t n = topology.num_nodes();
  RoundPlan plan(n, options);
  std::vector<PlannedRound> out;
  for (std::size_t round = 0; round < rounds; ++round) {
    plan.plan(topology, pool.get());
    PlannedRound p;
    for (NodeId i = 0; i < n; ++i) {
      p.targets.push_back(plan.target(i));
      const auto o = plan.outgoing(i);
      p.outgoing.emplace_back(o.begin(), o.end());
      const auto in = plan.incoming(i);
      p.incoming.emplace_back(in.begin(), in.end());
    }
    for (const PlannedMessage& m : plan.messages()) {
      p.messages.emplace_back(m.from, m.to, m.kind);
    }
    const auto crashed = plan.crash();
    p.crashed.assign(crashed.begin(), crashed.end());
    stats::Rng stream = plan.environment_stream();
    p.next_draw = stream.engine()();
    out.push_back(std::move(p));
  }
  return out;
}

/// The same rounds by the plain sequential algorithm: every live node
/// picks in node order from a live-neighbor list, rows are appended by
/// initiator, and each view lists its rows in row order.
std::vector<PlannedRound> reference_rounds(const Topology& topology,
                                           const RoundRunnerOptions& options,
                                           std::size_t rounds) {
  const std::size_t n = topology.num_nodes();
  stats::Rng stream = RoundPlan(n, options).environment_stream();
  std::vector<bool> alive(n, true);
  std::vector<std::size_t> cursor(n, 0);
  const bool avoid =
      options.crash_send_policy == CrashSendPolicy::avoid_crashed;
  const auto pick = [&](NodeId i) -> std::optional<NodeId> {
    const auto nbrs = topology.neighbors(i);
    if (options.selection == NeighborSelection::round_robin) {
      for (std::size_t step = 0; step < nbrs.size(); ++step) {
        const NodeId t = nbrs[cursor[i] % nbrs.size()];
        cursor[i] = (cursor[i] + 1) % nbrs.size();
        if (!avoid || alive[t]) return t;
      }
      return std::nullopt;
    }
    std::vector<NodeId> live;
    for (const NodeId t : nbrs) {
      if (!avoid || alive[t]) live.push_back(t);
    }
    if (live.empty()) return std::nullopt;
    return live[stream.uniform_index(live.size())];
  };
  std::vector<PlannedRound> out;
  for (std::size_t round = 0; round < rounds; ++round) {
    PlannedRound p;
    p.outgoing.resize(n);
    p.incoming.resize(n);
    for (NodeId i = 0; i < n; ++i) {
      p.targets.push_back(alive[i] ? pick(i) : std::nullopt);
    }
    const auto add = [&](NodeId from, NodeId to, MessageKind kind) {
      p.outgoing[from].push_back(p.messages.size());
      p.incoming[to].push_back(p.messages.size());
      p.messages.emplace_back(from, to, kind);
    };
    for (NodeId i = 0; i < n; ++i) {
      if (!p.targets[i]) continue;
      const NodeId t = *p.targets[i];
      if (options.pattern != GossipPattern::pull) {
        add(i, t, MessageKind::forward);
      }
      if (options.pattern != GossipPattern::push && alive[t]) {
        add(t, i, MessageKind::reply);
      }
    }
    if (options.crash_probability > 0.0) {
      for (NodeId i = 0; i < n; ++i) {
        if (alive[i] && stream.bernoulli(options.crash_probability)) {
          alive[i] = false;
          p.crashed.push_back(i);
        }
      }
    }
    stats::Rng next = stream;
    p.next_draw = next.engine()();
    out.push_back(std::move(p));
  }
  return out;
}

/// {round_robin, uniform_random} × {push, pull, push-pull} ×
/// {avoid_crashed, drop_at_crashed} × crash probability {0, 0.2}.
std::vector<RoundRunnerOptions> lane_cases() {
  std::vector<RoundRunnerOptions> cases;
  for (const NeighborSelection selection :
       {NeighborSelection::round_robin, NeighborSelection::uniform_random}) {
    for (const GossipPattern pattern :
         {GossipPattern::push, GossipPattern::pull, GossipPattern::push_pull}) {
      for (const CrashSendPolicy policy :
           {CrashSendPolicy::avoid_crashed, CrashSendPolicy::drop_at_crashed}) {
        for (const double crash : {0.0, 0.2}) {
          RoundRunnerOptions options;
          options.selection = selection;
          options.pattern = pattern;
          options.crash_send_policy = policy;
          options.crash_probability = crash;
          options.seed = 11;
          cases.push_back(options);
        }
      }
    }
  }
  return cases;
}

TEST(RoundPlan, AnyLaneCountPlansTheSequentialRounds) {
  constexpr std::size_t kLaneRounds = 12;
  // 40 nodes leave some of the plan's 64 node blocks empty; 300 fill
  // them all and span several view buckets.
  for (const std::size_t n : {40, 300}) {
    stats::Rng graph_rng(n);
    const Topology topology =
        Topology::erdos_renyi(n, 6.0 / static_cast<double>(n), graph_rng);
    for (const RoundRunnerOptions& options : lane_cases()) {
      SCOPED_TRACE(
          "n=" + std::to_string(n) +
          " selection=" + std::to_string(static_cast<int>(options.selection)) +
          " pattern=" + std::to_string(static_cast<int>(options.pattern)) +
          " policy=" +
          std::to_string(static_cast<int>(options.crash_send_policy)) +
          " crash=" + std::to_string(options.crash_probability));
      const std::vector<PlannedRound> reference =
          reference_rounds(topology, options, kLaneRounds);
      std::size_t crashes = 0;
      for (const PlannedRound& p : reference) crashes += p.crashed.size();
      EXPECT_EQ(crashes > 0, options.crash_probability > 0.0);
      // One lane (no pool), then 2, 3 and 4 lanes.
      for (const std::size_t lanes : {1, 2, 3, 4}) {
        const std::vector<PlannedRound> rounds =
            plan_rounds(topology, options, lanes, kLaneRounds);
        for (std::size_t r = 0; r < kLaneRounds; ++r) {
          EXPECT_TRUE(rounds[r] == reference[r])
              << lanes << " lanes, round " << r;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ddc::sim
