// Shard-count invariance suite: the sharded cluster engine against the
// monolithic RoundRunner, by FNV-1a digest of every node's wire-encoded
// final classification.
//
// Two bit-identity contracts:
//
//   1. ShardCluster(S) ≡ ShardCluster(1) for S ∈ {2, 4, 8}, across
//      3 seeds × {centroid, gm} × {lossless, loss 0.1} × {contiguous,
//      edgecut} ownership maps, plus gossip patterns, selection
//      policies, crash models, sparse topologies and injected link loss
//      (the batch retransmit layer must absorb dropped frames without
//      changing a bit).
//   2. ShardCluster(S) ≡ RoundRunner on LOSSLESS cells. Lossy cells are
//      excluded by design: the cluster derives stateless per-message
//      loss verdicts (RoundRunner's sequential loss stream is
//      unreplayable across shards — its draw count depends on message
//      emptiness, unknowable for remote senders), so it samples a
//      different, equally valid loss pattern. See DESIGN.md "Sharded
//      cluster engine".
//
// A 2-shard × 512-node smoke keeps the batching claim honest (mean
// messages per frame > 1) and doubles as the CI multi-shard gate.
#include <ddc/shard/factories.hpp>

#include <cstdint>
#include <iomanip>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <ddc/gossip/runners.hpp>
#include <ddc/wire/framing.hpp>
#include <ddc/wire/serialize.hpp>

namespace ddc::shard {
namespace {

/// FNV-1a 64-bit over a byte string (same digest as the scale suite).
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
std::string digest_runner(const Runner& runner) {
  Digest digest;
  for (const auto& node : runner.nodes()) {
    digest.absorb(wire::encode_classification(node.classification()));
  }
  return digest.hex();
}

template <typename Cluster>
std::string digest_cluster(const Cluster& cluster) {
  Digest digest;
  for (sim::NodeId i = 0; i < cluster.map().num_nodes(); ++i) {
    digest.absorb(wire::encode_classification(cluster.node(i).classification()));
  }
  return digest.hex();
}

constexpr std::size_t kGmNodes = 48;
constexpr std::size_t kCentroidNodes = 200;
constexpr std::size_t kRounds = 20;

sim::EngineConfig base_config(std::size_t nodes, std::uint64_t seed) {
  sim::EngineConfig config;
  config.topology.family = sim::TopologyFamily::complete;
  config.topology.nodes = nodes;
  config.k = 2;
  config.protocol_seed = seed + 100;
  config.seed = seed + 200;
  return config;
}

// ---------------------------------------------------------------------------
// Contract 1 + 2: the equivalence matrix.
// ---------------------------------------------------------------------------

TEST(ShardEquivalence, CentroidMatrix) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    for (const double loss : {0.0, 0.1}) {
      sim::EngineConfig config = base_config(kCentroidNodes, seed);
      config.faults.message_loss_probability = loss;
      const auto inputs = bimodal_inputs(kCentroidNodes, seed);
      const auto topology = sim::Topology::complete(kCentroidNodes);

      auto mono = make_centroid_shard_cluster(topology, inputs, config, 1);
      mono.run_rounds(kRounds);
      const std::string reference = digest_cluster(mono);

      for (const ShardId shards : {ShardId{2}, ShardId{4}, ShardId{8}}) {
        for (const Partitioner partitioner :
             {Partitioner::contiguous, Partitioner::edgecut}) {
          auto cluster = make_centroid_shard_cluster(topology, inputs, config,
                                                     shards, {}, partitioner);
          cluster.run_rounds(kRounds);
          EXPECT_EQ(digest_cluster(cluster), reference)
              << "centroid seed=" << seed << " loss=" << loss
              << " shards=" << shards
              << " map=" << partitioner_name(partitioner);
        }
      }

      if (loss == 0.0) {
        // Lossless runs must also match the monolithic RoundRunner bit
        // for bit — the cluster is then a pure re-execution of it.
        auto runner =
            gossip::make_centroid_round_runner(topology, inputs, config);
        runner.run_rounds(kRounds);
        EXPECT_EQ(reference, digest_runner(runner))
            << "centroid vs RoundRunner seed=" << seed;
      }
    }
  }
}

TEST(ShardEquivalence, GmMatrix) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    for (const double loss : {0.0, 0.1}) {
      sim::EngineConfig config = base_config(kGmNodes, seed);
      config.faults.message_loss_probability = loss;
      const auto inputs = bimodal_inputs(kGmNodes, seed);
      const auto topology = sim::Topology::complete(kGmNodes);

      auto mono = make_gm_shard_cluster(topology, inputs, config, 1);
      mono.run_rounds(kRounds);
      const std::string reference = digest_cluster(mono);

      for (const ShardId shards : {ShardId{2}, ShardId{4}, ShardId{8}}) {
        for (const Partitioner partitioner :
             {Partitioner::contiguous, Partitioner::edgecut}) {
          auto cluster = make_gm_shard_cluster(topology, inputs, config,
                                               shards, {}, {}, partitioner);
          cluster.run_rounds(kRounds);
          EXPECT_EQ(digest_cluster(cluster), reference)
              << "gm seed=" << seed << " loss=" << loss << " shards=" << shards
              << " map=" << partitioner_name(partitioner);
        }
      }

      if (loss == 0.0) {
        auto runner = gossip::make_gm_round_runner(topology, inputs, config);
        runner.run_rounds(kRounds);
        EXPECT_EQ(reference, digest_runner(runner))
            << "gm vs RoundRunner seed=" << seed;
      }
    }
  }
}

TEST(ShardEquivalence, PatternsSelectionCrashesAndSparseTopologies) {
  struct Case {
    sim::GossipPattern pattern;
    sim::NeighborSelection selection;
    double crash;
    sim::CrashSendPolicy policy;
  };
  const Case cases[] = {
      {sim::GossipPattern::push_pull, sim::NeighborSelection::uniform_random,
       0.0, sim::CrashSendPolicy::avoid_crashed},
      {sim::GossipPattern::pull, sim::NeighborSelection::round_robin, 0.0,
       sim::CrashSendPolicy::avoid_crashed},
      {sim::GossipPattern::push, sim::NeighborSelection::uniform_random, 0.05,
       sim::CrashSendPolicy::avoid_crashed},
      {sim::GossipPattern::push_pull, sim::NeighborSelection::round_robin,
       0.05, sim::CrashSendPolicy::drop_at_crashed},
  };
  const auto topologies = {sim::Topology::grid(10, 12, false),
                           sim::Topology::ring(120)};
  for (const Case& c : cases) {
    for (const auto& topology : topologies) {
      sim::EngineConfig config = base_config(120, 7);
      config.pattern = c.pattern;
      config.selection = c.selection;
      config.faults.crash_probability = c.crash;
      config.faults.crash_send_policy = c.policy;
      const auto inputs = bimodal_inputs(120, 7);

      auto mono = make_centroid_shard_cluster(topology, inputs, config, 1);
      mono.run_rounds(kRounds);
      const std::string reference = digest_cluster(mono);

      for (const Partitioner partitioner :
           {Partitioner::contiguous, Partitioner::edgecut}) {
        auto cluster = make_centroid_shard_cluster(topology, inputs, config, 3,
                                                   {}, partitioner);
        cluster.run_rounds(kRounds);
        EXPECT_EQ(digest_cluster(cluster), reference)
            << "pattern=" << static_cast<int>(c.pattern)
            << " selection=" << static_cast<int>(c.selection)
            << " crash=" << c.crash << " map=" << partitioner_name(partitioner);
      }

      // Lossless/crashy runs still match RoundRunner exactly (crash
      // draws replay the same env stream).
      auto runner =
          gossip::make_centroid_round_runner(topology, inputs, config);
      runner.run_rounds(kRounds);
      EXPECT_EQ(reference, digest_runner(runner));
    }
  }
}

TEST(ShardEquivalence, InjectedLinkLossIsAbsorbedByRetransmits) {
  // 30% of loopback frames (batches AND acks) vanish; the seq/ack layer
  // must recover every one, leaving the digest bit-identical to the
  // clean monolithic run.
  sim::EngineConfig config = base_config(kCentroidNodes, 11);
  const auto inputs = bimodal_inputs(kCentroidNodes, 11);
  const auto topology = sim::Topology::complete(kCentroidNodes);

  auto mono = make_centroid_shard_cluster(topology, inputs, config, 1);
  mono.run_rounds(kRounds);

  net::LoopbackOptions lossy;
  lossy.seed = 99;
  lossy.loss_probability = 0.3;
  auto cluster =
      make_centroid_shard_cluster(topology, inputs, config, 4, lossy);
  cluster.run_rounds(kRounds);

  EXPECT_EQ(digest_cluster(cluster), digest_cluster(mono));
  std::uint64_t retransmits = 0;
  for (ShardId s = 0; s < 4; ++s) {
    retransmits += cluster.engine(s).stats().retransmits;
  }
  EXPECT_GT(retransmits, 0UL);
}

// ---------------------------------------------------------------------------
// The CI multi-shard smoke: 2 shards × 512 nodes, cross-checked against
// monolithic, with the batching claim asserted.
// ---------------------------------------------------------------------------

TEST(ShardSmoke, TwoShards512NodesMatchMonolithicAndBatch) {
  constexpr std::size_t kNodes = 512;
  sim::EngineConfig config = base_config(kNodes, 21);
  const auto inputs = bimodal_inputs(kNodes, 21);
  const auto topology = sim::Topology::grid(16, 32, false);

  auto mono = make_centroid_shard_cluster(topology, inputs, config, 1);
  mono.run_rounds(10);

  auto cluster = make_centroid_shard_cluster(topology, inputs, config, 2);
  cluster.run_rounds(10);

  EXPECT_EQ(digest_cluster(cluster), digest_cluster(mono));

  // Cross-shard traffic must actually batch: many logical messages per
  // frame on average (one frame per peer per round, barrier included).
  std::uint64_t frames = 0;
  std::uint64_t records = 0;
  for (ShardId s = 0; s < 2; ++s) {
    frames += cluster.engine(s).stats().batch_frames_sent;
    records += cluster.engine(s).stats().batch_records_sent;
  }
  ASSERT_GT(frames, 0UL);
  EXPECT_GT(static_cast<double>(records) / static_cast<double>(frames), 1.0);
}

// ---------------------------------------------------------------------------
// Fault handling: a silent shard times out of the barrier; a lagging
// shard catches up by replaying rounds and rejoins.
// ---------------------------------------------------------------------------

TEST(ShardFaults, SilentPeerTimesOutAndLaggardRejoins) {
  constexpr std::size_t kNodes = 60;
  sim::EngineConfig config = base_config(kNodes, 5);
  const auto inputs = bimodal_inputs(kNodes, 5);
  const auto topology = sim::Topology::complete(kNodes);
  const ShardMap map(kNodes, 2);
  const auto net_config = gossip::network_config(config);

  net::LoopbackNetwork fabric(2);
  ShardEngineOptions options = shard_options(config);
  options.resend_interval_polls = 8;
  options.max_exchange_polls = 64;
  CentroidShardEngine e0(topology, map, 0,
                         make_centroid_nodes(inputs, net_config, map.owned(0)),
                         &fabric.endpoint(0), options);
  CentroidShardEngine e1(topology, map, 1,
                         make_centroid_nodes(inputs, net_config, map.owned(1)),
                         &fabric.endpoint(1), options);

  // Round 0: healthy lockstep.
  const auto drive_both = [&] {
    e0.begin_round();
    e1.begin_round();
    bool d0 = false;
    bool d1 = false;
    for (int iter = 0; iter < 10000 && !(d0 && d1); ++iter) {
      fabric.advance();
      if (!d0) d0 = e0.try_complete_round();
      if (!d1) d1 = e1.try_complete_round();
    }
    ASSERT_TRUE(d0 && d1);
  };
  drive_both();
  EXPECT_TRUE(e0.peer_shard_alive(1));

  // Shard 1 goes silent; shard 0 must time out and keep making rounds.
  for (int r = 0; r < 2; ++r) {
    e0.begin_round();
    bool done = false;
    for (int iter = 0; iter < 10000 && !done; ++iter) {
      fabric.advance();
      done = e0.try_complete_round();
    }
    ASSERT_TRUE(done);
  }
  EXPECT_EQ(e0.round(), 3UL);
  EXPECT_FALSE(e0.peer_shard_alive(1));
  EXPECT_GT(e0.stats().peer_timeouts, 0UL);

  // Shard 1 wakes up two rounds behind. It catches up by replaying its
  // rounds (the global plan is a pure function of the seed, so its env
  // state stays consistent) and the cluster relocks.
  const std::size_t target = 5;
  bool open0 = false;
  bool open1 = false;
  for (int iter = 0; iter < 200000; ++iter) {
    if (e0.round() >= target && e1.round() >= target) break;
    if (!open0 && e0.round() < target) {
      e0.begin_round();
      open0 = true;
    }
    if (!open1 && e1.round() < target) {
      e1.begin_round();
      open1 = true;
    }
    fabric.advance();
    if (open0 && e0.try_complete_round()) open0 = false;
    if (open1 && e1.try_complete_round()) open1 = false;
  }
  EXPECT_EQ(e0.round(), target);
  EXPECT_EQ(e1.round(), target);
  EXPECT_TRUE(e0.peer_shard_alive(1));
  EXPECT_TRUE(e1.peer_shard_alive(0));
}

TEST(ShardFaults, MalformedAndForeignFramesAreCountedAndIgnored) {
  // Hostile input on a shard's transport: every malformed frame is
  // counted as a decode error and dropped, frames of other kinds are
  // ignored, and neither changes a bit of the run.
  constexpr std::size_t kNodes = 60;
  sim::EngineConfig config = base_config(kNodes, 13);
  const auto inputs = bimodal_inputs(kNodes, 13);
  const auto topology = sim::Topology::complete(kNodes);

  auto clean = make_centroid_shard_cluster(topology, inputs, config, 2);
  clean.run_rounds(10);

  auto cluster = make_centroid_shard_cluster(topology, inputs, config, 2);
  cluster.run_rounds(5);
  const std::uint64_t errors_before = cluster.engine(0).stats().decode_errors;

  // Every frame is sent from shard 1's endpoint, so shard 0 attributes
  // it to peer 1.
  net::LoopbackTransport& from_peer = cluster.network().endpoint(1);
  const std::uint64_t round = cluster.engine(0).round();
  const std::vector<std::byte> body{std::byte{0x2a}, std::byte{0x07}};
  const wire::BatchRecord record{1, 0, wire::BatchTag::forward, body};
  // 1. Raw garbage: fails the envelope.
  from_peer.send(0, {std::byte{0x00}, std::byte{0x11}});
  // 2. Valid envelope, batch payload cut one byte short.
  std::vector<std::byte> truncated =
      wire::encode_batch(round, 1, 2, std::span(&record, 1));
  truncated.pop_back();
  from_peer.send(0, wire::encode_frame(wire::FrameKind::batch, 1, round + 1,
                                       truncated));
  // 3. Well-formed batch whose shard field is not its sender.
  const std::vector<std::byte> foreign =
      wire::encode_batch(round, 0, 2, std::span(&record, 1));
  from_peer.send(0, wire::encode_frame(wire::FrameKind::batch, 1, round + 1,
                                       foreign));
  // 4. Frames of kinds a shard does not handle: ignored, not errors.
  from_peer.send(0, wire::encode_frame(wire::FrameKind::gossip, 1, 1, body));
  from_peer.send(0, wire::encode_frame(wire::FrameKind::probe, 1, 2));
  cluster.run_rounds(5);

  EXPECT_EQ(cluster.engine(0).stats().decode_errors, errors_before + 3);
  EXPECT_EQ(cluster.engine(1).stats().decode_errors, 0UL);
  EXPECT_EQ(wire::encode_classification(cluster.node(0).classification()),
            wire::encode_classification(clean.node(0).classification()));
  EXPECT_EQ(digest_cluster(cluster), digest_cluster(clean));
}

}  // namespace
}  // namespace ddc::shard
