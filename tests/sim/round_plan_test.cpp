// RoundPlan's message table on its own: row order, the three views and
// the membership rules, over {push, pull, push-pull} × {avoid_crashed,
// drop_at_crashed with crashes} × seeds on a sparse ER graph and a ring.
// The engine golden digests pin the same facts only indirectly.
#include <ddc/sim/round_plan.hpp>

#include <functional>
#include <string>
#include <tuple>
#include <vector>

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

}  // namespace
}  // namespace ddc::sim
