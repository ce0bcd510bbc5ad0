// Golden equivalence suite: the scale engine and the EngineConfig facade
// against the classic runners.
//
// Three bit-identity contracts are pinned here, all by comparing FNV-1a
// digests of every node's wire-encoded final classification:
//
//   1. SoaRoundEngine ≡ RoundRunner for the supported protocols, across
//      3 seeds × {centroid, gm} × {lossless, loss 0.1}, plus crash
//      models, gossip patterns, selection policies, thread counts and
//      topology families — the struct-of-arrays pools, message arena and
//      scratch-classifier rehydration must not change a single mantissa
//      bit relative to one-object-per-node execution.
//   2. EngineConfig-built round runners ≡ hand-assembled round runners
//      — the unified config object is a pure re-expression, not a new
//      code path.
//   3. The streaming metrics equal their materializing counterparts.
//
// A 100k-node smoke test keeps the scale path honest under the normal
// ctest timeout (the full 10⁶ benchmark lives in bench/bench_scale).
#include <ddc/gossip/runners.hpp>
#include <ddc/metrics/classification_metrics.hpp>
#include <ddc/metrics/streaming.hpp>
#include <ddc/wire/serialize.hpp>

#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ddc::sim {
namespace {

/// FNV-1a 64-bit over a byte string (same digest as hotpath_golden_test).
class Digest {
 public:
  void absorb(const std::vector<std::byte>& bytes) {
    for (const std::byte b : bytes) {
      hash_ ^= static_cast<std::uint64_t>(b);
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::string hex() const {
    std::ostringstream os;
    os << std::hex << std::setfill('0') << std::setw(16) << hash_;
    return os.str();
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::vector<linalg::Vector> bimodal_inputs(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<linalg::Vector> inputs;
  inputs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(linalg::Vector{
        i % 2 == 0 ? rng.normal(0.0, 1.0) : rng.normal(25.0, 2.0),
        rng.normal(0.0, 1.0)});
  }
  return inputs;
}

template <typename Runner>
std::string digest_nodes(const Runner& runner) {
  Digest digest;
  for (const auto& node : runner.nodes()) {
    digest.absorb(wire::encode_classification(node.classification()));
  }
  return digest.hex();
}

template <typename Engine>
std::string digest_engine(const Engine& engine) {
  Digest digest;
  engine.for_each_classification([&](std::size_t, const auto& classification) {
    digest.absorb(wire::encode_classification(classification));
  });
  return digest.hex();
}

constexpr std::size_t kGmNodes = 48;
constexpr std::size_t kCentroidNodes = 200;
constexpr std::size_t kRounds = 20;

/// The shared configuration of one equivalence case. Seeds follow the
/// hotpath-golden convention (protocol seed+100, environment seed+200).
EngineConfig base_config(std::size_t nodes, std::uint64_t seed) {
  EngineConfig config;
  config.topology.family = TopologyFamily::complete;
  config.topology.nodes = nodes;
  config.k = 2;
  config.protocol_seed = seed + 100;
  config.seed = seed + 200;
  return config;
}

/// Classic runner assembled the historical way (NetworkConfig + options
/// structs) — the reference the facade and the scale engine must match.
template <typename Factory>
std::string classic_round_digest(Factory&& factory, std::size_t nodes,
                                 const EngineConfig& config) {
  const auto inputs = bimodal_inputs(nodes, config.protocol_seed - 100);
  gossip::NetworkConfig net;
  net.k = config.k;
  net.quanta_per_unit = config.quanta_per_unit;
  net.seed = config.protocol_seed;
  auto runner =
      factory(Topology::complete(nodes), inputs, net, config.round_options());
  runner.run_rounds(kRounds);
  return digest_nodes(runner);
}

// ---------------------------------------------------------------------------
// Contract 1+2 (round mode): classic hand-built ≡ classic via
// EngineConfig ≡ SoaRoundEngine, 3 seeds × {lossless, loss 0.1}.
// ---------------------------------------------------------------------------

TEST(ScaleEquivalence, CentroidRoundBitIdentical) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    for (const double loss : {0.0, 0.1}) {
      EngineConfig config = base_config(kCentroidNodes, seed);
      config.faults.message_loss_probability = loss;
      const auto inputs = bimodal_inputs(kCentroidNodes, seed);
      const std::string classic = classic_round_digest(
          [](Topology t, const auto& in, const auto& net, const auto& opt) {
            return gossip::make_centroid_round_runner(std::move(t), in, net,
                                                      opt);
          },
          kCentroidNodes, config);

      auto via_config = gossip::make_centroid_round_runner(
          Topology::complete(kCentroidNodes), inputs, config);
      via_config.run_rounds(kRounds);

      auto scale = gossip::make_centroid_scale_engine(
          Topology::complete(kCentroidNodes), inputs, config);
      scale.run_rounds(kRounds);

      EXPECT_EQ(classic, digest_nodes(via_config))
          << "seed " << seed << " loss " << loss;
      EXPECT_EQ(classic, digest_engine(scale))
          << "seed " << seed << " loss " << loss;
    }
  }
}

TEST(ScaleEquivalence, GmRoundBitIdentical) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    for (const double loss : {0.0, 0.1}) {
      EngineConfig config = base_config(kGmNodes, seed);
      config.faults.message_loss_probability = loss;
      const auto inputs = bimodal_inputs(kGmNodes, seed);
      const std::string classic = classic_round_digest(
          [](Topology t, const auto& in, const auto& net, const auto& opt) {
            return gossip::make_gm_round_runner(std::move(t), in, net, opt);
          },
          kGmNodes, config);

      auto via_config = gossip::make_gm_round_runner(
          Topology::complete(kGmNodes), inputs, config);
      via_config.run_rounds(kRounds);

      auto scale = gossip::make_gm_scale_engine(Topology::complete(kGmNodes),
                                                inputs, config);
      scale.run_rounds(kRounds);

      EXPECT_EQ(classic, digest_nodes(via_config))
          << "seed " << seed << " loss " << loss;
      EXPECT_EQ(classic, digest_engine(scale))
          << "seed " << seed << " loss " << loss;
    }
  }
}

// ---------------------------------------------------------------------------
// Contract 1, stressed along every remaining axis.
// ---------------------------------------------------------------------------

/// Runs classic and scale side by side on the same topology/config and
/// expects identical digests (and, with crashes, identical alive sets).
void expect_round_equivalence(const Topology& topology,
                              const std::vector<linalg::Vector>& inputs,
                              const EngineConfig& config,
                              const std::string& label) {
  auto classic =
      gossip::make_centroid_round_runner(topology, inputs, config);
  classic.run_rounds(kRounds);
  auto scale = gossip::make_centroid_scale_engine(topology, inputs, config);
  scale.run_rounds(kRounds);
  EXPECT_EQ(digest_nodes(classic), digest_engine(scale)) << label;
  for (NodeId i = 0; i < topology.num_nodes(); ++i) {
    ASSERT_EQ(classic.alive(i), scale.alive(i)) << label << " node " << i;
  }
}

TEST(ScaleEquivalence, PatternsAndSelection) {
  const auto inputs = bimodal_inputs(kCentroidNodes, 7);
  for (const GossipPattern pattern :
       {GossipPattern::push, GossipPattern::pull, GossipPattern::push_pull}) {
    for (const NeighborSelection selection :
         {NeighborSelection::uniform_random, NeighborSelection::round_robin}) {
      EngineConfig config = base_config(kCentroidNodes, 7);
      config.pattern = pattern;
      config.selection = selection;
      expect_round_equivalence(
          Topology::complete(kCentroidNodes), inputs, config,
          "pattern " + std::to_string(static_cast<int>(pattern)) +
              " selection " + std::to_string(static_cast<int>(selection)));
    }
  }
}

TEST(ScaleEquivalence, CrashModels) {
  const auto inputs = bimodal_inputs(kCentroidNodes, 5);
  for (const CrashSendPolicy policy :
       {CrashSendPolicy::avoid_crashed, CrashSendPolicy::drop_at_crashed}) {
    EngineConfig config = base_config(kCentroidNodes, 5);
    config.faults.crash_probability = 0.05;
    config.faults.crash_send_policy = policy;
    config.pattern = GossipPattern::push_pull;
    expect_round_equivalence(Topology::complete(kCentroidNodes), inputs,
                             config,
                             policy == CrashSendPolicy::avoid_crashed
                                 ? "avoid_crashed"
                                 : "drop_at_crashed");
  }
}

TEST(ScaleEquivalence, SparseTopologies) {
  const auto inputs = bimodal_inputs(kCentroidNodes, 11);
  EngineConfig config = base_config(kCentroidNodes, 11);
  stats::Rng topo_rng(42);
  const Topology topologies[] = {
      Topology::ring(kCentroidNodes),
      Topology::grid(10, 20, true),
      Topology::random_geometric(kCentroidNodes, 0.2, topo_rng),
      Topology::erdos_renyi(kCentroidNodes, 0.08, topo_rng),
  };
  for (std::size_t t = 0; t < std::size(topologies); ++t) {
    expect_round_equivalence(topologies[t], inputs, config,
                             "topology " + std::to_string(t));
  }
}

TEST(ScaleEquivalence, ParallelismInvariant) {
  const auto inputs = bimodal_inputs(kCentroidNodes, 13);
  EngineConfig sequential = base_config(kCentroidNodes, 13);
  sequential.pattern = GossipPattern::push_pull;
  EngineConfig threaded = sequential;
  threaded.parallelism = 3;

  auto engine_seq = gossip::make_centroid_scale_engine(
      Topology::complete(kCentroidNodes), inputs, sequential);
  engine_seq.run_rounds(kRounds);
  auto engine_par = gossip::make_centroid_scale_engine(
      Topology::complete(kCentroidNodes), inputs, threaded);
  engine_par.run_rounds(kRounds);
  EXPECT_EQ(digest_engine(engine_seq), digest_engine(engine_par));

  // And against the threaded classic runner.
  auto classic = gossip::make_centroid_round_runner(
      Topology::complete(kCentroidNodes), inputs, threaded);
  classic.run_rounds(kRounds);
  EXPECT_EQ(digest_nodes(classic), digest_engine(engine_par));
}

TEST(ScaleEquivalence, GmParallelismInvariant) {
  const auto inputs = bimodal_inputs(kGmNodes, 17);
  EngineConfig sequential = base_config(kGmNodes, 17);
  EngineConfig threaded = sequential;
  threaded.parallelism = 3;

  auto engine_seq = gossip::make_gm_scale_engine(Topology::complete(kGmNodes),
                                                 inputs, sequential);
  engine_seq.run_rounds(10);
  auto engine_par = gossip::make_gm_scale_engine(Topology::complete(kGmNodes),
                                                 inputs, threaded);
  engine_par.run_rounds(10);
  EXPECT_EQ(digest_engine(engine_seq), digest_engine(engine_par));
}

// ---------------------------------------------------------------------------
// Contract 3: streaming metrics ≡ materializing metrics.
// ---------------------------------------------------------------------------

TEST(ScaleEquivalence, StreamingMetricsMatch) {
  const auto inputs = bimodal_inputs(kCentroidNodes, 19);
  const EngineConfig config = base_config(kCentroidNodes, 19);
  auto classic = gossip::make_centroid_round_runner(
      Topology::complete(kCentroidNodes), inputs, config);
  classic.run_rounds(kRounds);
  auto scale = gossip::make_centroid_scale_engine(
      Topology::complete(kCentroidNodes), inputs, config);
  scale.run_rounds(kRounds);

  EXPECT_DOUBLE_EQ(
      metrics::max_disagreement_vs_first<summaries::CentroidPolicy>(
          classic.nodes()),
      metrics::streaming_max_disagreement<summaries::CentroidPolicy>(scale));
  EXPECT_EQ(metrics::total_quanta(classic.nodes()), scale.total_quanta());
}

// ---------------------------------------------------------------------------
// Scale smoke: 100k nodes under the normal ctest timeout.
// ---------------------------------------------------------------------------

TEST(ScaleEquivalence, Smoke100kCentroid) {
  constexpr std::size_t kBig = 100'000;
  const auto inputs = bimodal_inputs(kBig, 1);
  EngineConfig config = base_config(kBig, 1);
  config.parallelism = 0;  // one lane per hardware thread

  // TopologySpec's exact-factorization grid packing: 100000 → 250×400.
  config.topology.family = TopologyFamily::grid;
  config.topology.nodes = kBig;
  stats::Rng topo_rng(0);
  Topology grid = config.build_topology(topo_rng);
  ASSERT_EQ(grid.num_nodes(), kBig);
  auto engine =
      gossip::make_centroid_scale_engine(std::move(grid), inputs, config);
  engine.run_rounds(3);
  EXPECT_EQ(engine.round(), 3U);
  EXPECT_EQ(engine.alive_count(), kBig);
  // Exact conservation at 100k nodes: no quantum was minted or lost.
  EXPECT_EQ(engine.total_quanta(),
            static_cast<std::int64_t>(kBig) * config.quanta_per_unit);
  EXPECT_GE(metrics::streaming_mean_collections(engine), 1.0);
}

}  // namespace
}  // namespace ddc::sim
