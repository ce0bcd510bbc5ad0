// Seed-era golden coverage for the optimized hot-path kernels.
//
// The partition/EM/moment-matching rewrites (see DESIGN.md "Hot paths")
// promise BIT-IDENTICAL results to the pre-optimization code. This test
// pins that promise to golden hashes generated from the unoptimized
// kernels: for 3 seeds × {centroid, GM} × {lossless, loss 0.1} it runs a
// full RoundRunner simulation (and, lossless only — the async engine has
// reliable channels by construction — an AsyncRunner one), wire-encodes
// every node's final classification, and compares an FNV-1a digest of all
// the bytes against the recorded golden. A single flipped mantissa bit
// anywhere in any node's summary changes the digest.
//
// The push rows date from the seed era. The pull and push-pull rows pin
// each pattern's split and absorb order for RoundRunner; they were
// recorded from the engines as they stood before the SoA engine's packed
// split and receive. Every round row is also run on SoaRoundEngine
// ("scale" rows), whose golden is, by the equivalence contract, the very
// same digest.
//
// To regenerate after an INTENTIONAL output change (one that a human has
// signed off on as semantically justified — never for an "optimization"):
//   DDC_PRINT_GOLDEN=1 ./build/tests/sim_tests
//       --gtest_filter='HotpathGolden.*' 2>&1 | grep GOLDEN
// (one command line; wrapped here for width)
#include <ddc/gossip/runners.hpp>
#include <ddc/wire/serialize.hpp>

#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ddc::sim {
namespace {

/// FNV-1a 64-bit over a byte string.
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

/// Bimodal 2-D inputs (the workload shape used throughout the benches).
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

constexpr std::size_t kNodes = 48;
constexpr std::size_t kRounds = 20;
constexpr double kAsyncHorizon = 20.0;

template <typename Engine>
std::string digest_engine(const Engine& engine) {
  Digest digest;
  engine.for_each_classification([&](std::size_t, const auto& classification) {
    digest.absorb(wire::encode_classification(classification));
  });
  return digest.hex();
}

RoundRunnerOptions round_options(std::uint64_t seed, double loss,
                                 GossipPattern pattern) {
  RoundRunnerOptions options;
  options.seed = seed + 200;
  options.message_loss_probability = loss;
  options.pattern = pattern;
  return options;
}

std::string round_digest(const std::string& protocol, std::uint64_t seed,
                         double loss, GossipPattern pattern) {
  const auto inputs = bimodal_inputs(kNodes, seed);
  gossip::NetworkConfig net;
  net.k = 2;
  net.seed = seed + 100;
  const RoundRunnerOptions options = round_options(seed, loss, pattern);
  if (protocol == "gm") {
    auto runner = make_gm_round_runner(Topology::complete(kNodes), inputs, net,
                                       options);
    runner.run_rounds(kRounds);
    return digest_nodes(runner);
  }
  auto runner = make_centroid_round_runner(Topology::complete(kNodes), inputs,
                                           net, options);
  runner.run_rounds(kRounds);
  return digest_nodes(runner);
}

/// The same run as round_digest on SoaRoundEngine.
std::string scale_digest(const std::string& protocol, std::uint64_t seed,
                         double loss, GossipPattern pattern) {
  const auto inputs = bimodal_inputs(kNodes, seed);
  gossip::NetworkConfig net;
  net.k = 2;
  net.seed = seed + 100;
  const RoundRunnerOptions options = round_options(seed, loss, pattern);
  if (protocol == "gm") {
    auto engine = make_gm_scale_engine(Topology::complete(kNodes), inputs,
                                       net, options);
    engine.run_rounds(kRounds);
    return digest_engine(engine);
  }
  auto engine = make_centroid_scale_engine(Topology::complete(kNodes), inputs,
                                           net, options);
  engine.run_rounds(kRounds);
  return digest_engine(engine);
}

std::string async_digest(const std::string& protocol, std::uint64_t seed) {
  const auto inputs = bimodal_inputs(kNodes, seed);
  gossip::NetworkConfig net;
  net.k = 2;
  net.seed = seed + 100;
  AsyncRunnerOptions options;
  options.seed = seed + 200;
  if (protocol == "gm") {
    auto runner = make_gm_async_runner(Topology::complete(kNodes), inputs, net,
                                       options);
    runner.run_until(kAsyncHorizon);
    return digest_nodes(runner);
  }
  auto runner = make_centroid_async_runner(Topology::complete(kNodes), inputs,
                                           net, options);
  runner.run_until(kAsyncHorizon);
  return digest_nodes(runner);
}

struct GoldenCase {
  std::string engine;  // "round" | "scale" | "async"
  std::string protocol;
  std::uint64_t seed;
  double loss;
  std::string golden;
  GossipPattern pattern = GossipPattern::push;
};

const char* pattern_name(GossipPattern pattern) {
  switch (pattern) {
    case GossipPattern::push:
      return "push";
    case GossipPattern::pull:
      return "pull";
    case GossipPattern::push_pull:
      return "push_pull";
  }
  return "?";
}

// Generated from the pre-optimization kernels (naive O(m³) greedy
// partition, per-pair Cholesky EM scoring, temporary-allocating moment
// matching) at the commit that introduced this test.
std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases = {
      {"round", "gm", 1, 0.0, "6055fd077ad9a9ef"},
      {"round", "gm", 2, 0.0, "d8fe69448631ef74"},
      {"round", "gm", 3, 0.0, "f71ad5b5196f8776"},
      {"round", "gm", 1, 0.1, "535151d5bcb56bba"},
      {"round", "gm", 2, 0.1, "5d9b322cbea93ab0"},
      {"round", "gm", 3, 0.1, "90e8d5d733dd122a"},
      {"round", "centroid", 1, 0.0, "61f655bd7e72c10a"},
      {"round", "centroid", 2, 0.0, "078630f474f0d966"},
      {"round", "centroid", 3, 0.0, "2f6f56671c36f325"},
      {"round", "centroid", 1, 0.1, "8ad96b37d10c2df5"},
      {"round", "centroid", 2, 0.1, "5fdd07fb370f7546"},
      {"round", "centroid", 3, 0.1, "b601cef9f135454f"},
      {"async", "gm", 1, 0.0, "7a3cddc5f0823b0b"},
      {"async", "gm", 2, 0.0, "c2c60bddeb24deee"},
      {"async", "gm", 3, 0.0, "b28faf546751a506"},
      {"async", "centroid", 1, 0.0, "cc7c36eefda3a84c"},
      {"async", "centroid", 2, 0.0, "33fc89d2ff326cf5"},
      {"async", "centroid", 3, 0.0, "f7e0eb6f6c519a56"},
  };
  constexpr GossipPattern kPull = GossipPattern::pull;
  constexpr GossipPattern kPushPull = GossipPattern::push_pull;
  const std::vector<GoldenCase> other_patterns = {
      {"round", "gm", 1, 0.0, "80faa7e83ce8963f", kPull},
      {"round", "gm", 2, 0.0, "c1acff5380a8b973", kPull},
      {"round", "gm", 3, 0.0, "7db6189ff6017a7b", kPull},
      {"round", "gm", 1, 0.1, "df731a58cbb3d062", kPull},
      {"round", "gm", 2, 0.1, "ee7d3fe16c0f33b4", kPull},
      {"round", "gm", 3, 0.1, "00bf752b3b4e831d", kPull},
      {"round", "centroid", 1, 0.0, "1ba78fe151bc5f20", kPull},
      {"round", "centroid", 2, 0.0, "4f66f7c62a3cd045", kPull},
      {"round", "centroid", 3, 0.0, "4b5b8b1936f75abd", kPull},
      {"round", "centroid", 1, 0.1, "e66eebee07cba18c", kPull},
      {"round", "centroid", 2, 0.1, "0e4c6dbbb90d2e21", kPull},
      {"round", "centroid", 3, 0.1, "bf82d82411fc0197", kPull},
      {"round", "gm", 1, 0.0, "ecc666f880d53c0b", kPushPull},
      {"round", "gm", 2, 0.0, "1cd61dc4b6ca3550", kPushPull},
      {"round", "gm", 3, 0.0, "739499a28d661881", kPushPull},
      {"round", "gm", 1, 0.1, "b278069e172f7cdb", kPushPull},
      {"round", "gm", 2, 0.1, "f2200ff05ff41cf3", kPushPull},
      {"round", "gm", 3, 0.1, "9aec7afd06379037", kPushPull},
      {"round", "centroid", 1, 0.0, "3ee2a1667e2106a7", kPushPull},
      {"round", "centroid", 2, 0.0, "546295332e342d02", kPushPull},
      {"round", "centroid", 3, 0.0, "b0392de121dcacde", kPushPull},
      {"round", "centroid", 1, 0.1, "ca11e6f414cefc50", kPushPull},
      {"round", "centroid", 2, 0.1, "21fe588c565e9f8b", kPushPull},
      {"round", "centroid", 3, 0.1, "0903308549ffeb52", kPushPull},
  };
  cases.insert(cases.end(), other_patterns.begin(), other_patterns.end());
  // Every round row again on the SoA engine, expecting the same digest.
  const std::size_t count = cases.size();
  for (std::size_t i = 0; i < count; ++i) {
    if (cases[i].engine != "round") continue;
    GoldenCase scale = cases[i];
    scale.engine = "scale";
    cases.push_back(scale);
  }
  return cases;
}

std::string run_case(const GoldenCase& c) {
  if (c.engine == "round") {
    return round_digest(c.protocol, c.seed, c.loss, c.pattern);
  }
  if (c.engine == "scale") {
    return scale_digest(c.protocol, c.seed, c.loss, c.pattern);
  }
  return async_digest(c.protocol, c.seed);
}

TEST(HotpathGolden, BitIdenticalToSeedEraKernels) {
  const bool print = std::getenv("DDC_PRINT_GOLDEN") != nullptr;
  for (const GoldenCase& c : golden_cases()) {
    SCOPED_TRACE(c.engine + "/" + c.protocol + "/seed=" +
                 std::to_string(c.seed) + "/loss=" + std::to_string(c.loss) +
                 "/" + pattern_name(c.pattern));
    const std::string actual = run_case(c);
    if (print) {
      std::ostringstream os;
      os << "GOLDEN " << c.engine << ' ' << c.protocol << ' ' << c.seed << ' '
         << c.loss << ' ' << pattern_name(c.pattern) << ' ' << actual;
      std::cout << os.str() << '\n';
      continue;
    }
    EXPECT_EQ(actual, c.golden);
  }
}

}  // namespace
}  // namespace ddc::sim
