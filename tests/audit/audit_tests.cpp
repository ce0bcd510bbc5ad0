// The auditors themselves are correctness-critical: a blind auditor
// green-lights a broken protocol. Each test here feeds an auditor a
// clean pool from a genuinely simulated system (it must accept), then
// plants one specific violation in a snapshot of that pool (it must
// throw AuditFailure, and the message must describe the violation well
// enough to debug from a CI log alone). This is the same pattern as
// ddcverify --self-test: every detector is proven live before it is
// trusted as a gate — the fuzz harnesses in fuzz/ rely on these
// auditors as their crash oracle.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include <ddc/audit/auditors.hpp>
#include <ddc/core/classifier.hpp>
#include <ddc/linalg/vector.hpp>
#include <ddc/partition/greedy.hpp>
#include <ddc/summaries/centroid.hpp>

namespace ddc {
namespace {

using linalg::Vector;
using Policy = summaries::CentroidPolicy;
using Partition = partition::GreedyDistancePartition<Policy>;
using Classifier = core::GenericClassifier<Policy, Partition>;
using Summary = Policy::Summary;
using audit::AuditFailure;

constexpr std::int64_t kQuanta = std::int64_t{1} << 12;
constexpr double kTol = 1e-9;

/// A small simulated system: n centroid classifiers with aux tracking,
/// driven through a deterministic burst of split/receive exchanges so
/// the pool holds genuinely merged and re-homed collections, plus one
/// undelivered in-flight message.
struct System {
  std::vector<Vector> inputs;
  std::vector<Classifier> nodes;
  std::vector<Classifier::Message> in_flight;

  explicit System(std::size_t n = 5) {
    core::ClassifierOptions options;
    options.k = 2;
    options.quanta_per_unit = kQuanta;
    options.track_aux = true;
    options.num_nodes = n;
    for (std::size_t i = 0; i < n; ++i) {
      inputs.push_back(Vector{static_cast<double>(i) * 1.5 - 3.0,
                              static_cast<double>(i % 2)});
      options.node_index = i;
      nodes.emplace_back(inputs.back(), Partition{}, options);
    }
    for (std::size_t round = 0; round < 6; ++round) {
      for (std::size_t i = 0; i < n; ++i) {
        nodes[(i + round) % n].receive(nodes[i].split());
      }
    }
    in_flight.push_back(nodes[0].split());
  }

  [[nodiscard]] audit::Pool<Summary> pool() const {
    return audit::collect_pool<Summary>(nodes, in_flight);
  }

  /// An owned copy of every pool collection — the thing tests corrupt.
  [[nodiscard]] std::vector<core::Collection<Summary>> snapshot() const {
    std::vector<core::Collection<Summary>> copy;
    for (const auto* c : pool()) copy.push_back(*c);
    return copy;
  }

  [[nodiscard]] std::int64_t expected_quanta() const {
    return static_cast<std::int64_t>(nodes.size()) * kQuanta;
  }
};

/// Borrow-view over an owned snapshot, as the auditors expect.
audit::Pool<Summary> view(
    const std::vector<core::Collection<Summary>>& storage) {
  audit::Pool<Summary> pool;
  pool.reserve(storage.size());
  for (const auto& c : storage) pool.push_back(&c);
  return pool;
}

std::string failure_message(const std::function<void()>& action) {
  try {
    action();
  } catch (const AuditFailure& failure) {
    return failure.what();
  }
  return {};
}

TEST(ConservationAudit, AcceptsCleanPool) {
  const System sys;
  EXPECT_NO_THROW(
      audit::check_conservation(sys.pool(), sys.expected_quanta()));
}

TEST(ConservationAudit, DetectsLostQuantum) {
  const System sys;
  auto pool = sys.snapshot();
  // Plant: a single quantum evaporates from one collection (the minimal
  // possible conservation violation — one lost unit out of n·2¹²).
  pool[2].weight = core::Weight::from_quanta(pool[2].weight.quanta() - 1);
  const std::string message = failure_message([&] {
    audit::check_conservation(view(pool), sys.expected_quanta());
  });
  ASSERT_FALSE(message.empty()) << "lost quantum went undetected";
  EXPECT_NE(message.find("conservation violated"), std::string::npos)
      << message;
  EXPECT_NE(message.find(std::to_string(sys.expected_quanta() - 1)),
            std::string::npos)
      << "message should state the observed total: " << message;
}

TEST(ConservationAudit, DetectsDuplicatedCollection) {
  const System sys;
  auto pool = sys.snapshot();
  // Plant: one collection exists twice — at a node and, duplicated, in
  // the channel (e.g. a retransmit bug).
  pool.push_back(pool.front());
  const std::string message = failure_message([&] {
    audit::check_conservation(view(pool), sys.expected_quanta());
  });
  ASSERT_FALSE(message.empty()) << "duplicated quanta went undetected";
  EXPECT_NE(message.find("conservation violated"), std::string::npos);
}

TEST(Lemma1Audit, AcceptsCleanPool) {
  const System sys;
  EXPECT_NO_THROW((audit::check_lemma1<Policy>(sys.pool(), sys.inputs,
                                               kQuanta, kTol)));
}

TEST(Lemma1Audit, DetectsMismatchedAuxVector) {
  const System sys;
  auto pool = sys.snapshot();
  // Plant: scale one aux vector — breaks Equation 2 (‖aux‖₁ = weight).
  ASSERT_TRUE(pool[1].aux.has_value());
  *pool[1].aux *= 1.01;
  const std::string message = failure_message([&] {
    audit::check_lemma1<Policy>(view(pool), sys.inputs, kQuanta, kTol);
  });
  ASSERT_FALSE(message.empty()) << "mismatched aux went undetected";
  EXPECT_NE(message.find("lemma 1"), std::string::npos) << message;
  EXPECT_NE(message.find("weight"), std::string::npos)
      << "message should relate ‖aux‖₁ to the weight: " << message;
}

TEST(Lemma1Audit, DetectsCorruptedSummary) {
  const System sys;
  auto pool = sys.snapshot();
  // Plant: nudge a summary away from f(aux) — breaks Equation 1 while
  // keeping Equation 2 intact.
  pool[3].summary[0] += 0.5;
  const std::string message = failure_message([&] {
    audit::check_lemma1<Policy>(view(pool), sys.inputs, kQuanta, kTol);
  });
  ASSERT_FALSE(message.empty()) << "corrupted summary went undetected";
  EXPECT_NE(message.find("does not equal f(aux)"), std::string::npos)
      << message;
}

TEST(Lemma1Audit, DetectsMissingAuxVector) {
  const System sys;
  auto pool = sys.snapshot();
  pool[0].aux.reset();
  const std::string message = failure_message([&] {
    audit::check_lemma1<Policy>(view(pool), sys.inputs, kQuanta, kTol);
  });
  ASSERT_FALSE(message.empty());
  EXPECT_NE(message.find("no auxiliary vector"), std::string::npos)
      << message;
}

TEST(Lemma2Audit, AcceptsMonotoneSimulatedRun) {
  System sys;
  audit::ReferenceAngleMonitor monitor(sys.nodes.size());
  EXPECT_NO_THROW(monitor.observe(sys.pool()));
  // Keep gossiping: Lemma 2 says the maxima must keep not increasing.
  for (std::size_t round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < sys.nodes.size(); ++i) {
      sys.nodes[i].receive(sys.nodes[(i + 1) % sys.nodes.size()].split());
    }
    EXPECT_NO_THROW(monitor.observe(sys.pool())) << "round " << round;
  }
  for (const double maximum : monitor.maxima()) {
    EXPECT_GE(maximum, 0.0);  // every input was observed at least once
  }
}

TEST(Lemma2Audit, DetectsIncreasedReferenceAngle) {
  const System sys;
  audit::ReferenceAngleMonitor monitor(sys.nodes.size());
  auto pool = sys.snapshot();
  monitor.observe(view(pool));
  // Plant: rotate one collection's aux mass fully onto input 0, pushing
  // its angle to every OTHER reference axis to 90° — an increase the
  // protocol's merge/split operations can never produce.
  ASSERT_TRUE(pool[4].aux.has_value());
  const double mass = linalg::norm1(*pool[4].aux);
  *pool[4].aux = linalg::unit_vector(sys.nodes.size(), 0) * mass;
  const std::string message =
      failure_message([&] { monitor.observe(view(pool)); });
  ASSERT_FALSE(message.empty()) << "angle increase went undetected";
  EXPECT_NE(message.find("lemma 2 violated"), std::string::npos) << message;
  EXPECT_NE(message.find("increased"), std::string::npos)
      << "message should name the increase: " << message;
}

TEST(Lemma2Audit, RejectsPoolWithoutAuxTracking) {
  const System sys;
  audit::ReferenceAngleMonitor monitor(sys.nodes.size());
  auto pool = sys.snapshot();
  pool[0].aux.reset();
  const std::string message =
      failure_message([&] { monitor.observe(view(pool)); });
  ASSERT_FALSE(message.empty());
  EXPECT_NE(message.find("lemma 2"), std::string::npos) << message;
}

}  // namespace
}  // namespace ddc
