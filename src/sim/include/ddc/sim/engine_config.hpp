// EngineConfig — the one configuration object behind every simulation.
//
// Before this existed each tool, bench and test assembled a run from four
// loose pieces: a hand-built Topology, a RoundRunnerOptions or
// AsyncRunnerOptions struct, a gossip::NetworkConfig, and ad-hoc flag
// parsing to fill them. EngineConfig subsumes all of it — the shared
// gossip options (it extends CommonRunnerOptions), a declarative topology
// spec, the fault model and parallelism — so every consumer migrates
// through one seam:
//
//   sim::EngineConfig config;
//   config.topology = {sim::TopologyFamily::geometric, 100'000};
//   auto engine = gossip::make_centroid_scale_engine(
//       config.build_topology(rng), inputs, config);
//
// The runner factories in gossip/runners.hpp are re-expressed on top of
// this type; cli::parse_engine_config builds one from command-line flags.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include <ddc/linalg/simd.hpp>
#include <ddc/sim/gossip_node.hpp>
#include <ddc/sim/round_runner.hpp>
#include <ddc/sim/topology.hpp>
#include <ddc/stats/rng.hpp>

namespace ddc::sim {

/// The topology families the evaluation and ablations use. `torus` is
/// grid with wrap-around, kept distinct because the CLI names it.
enum class TopologyFamily {
  complete,
  ring,
  directed_ring,
  line,
  star,
  grid,
  torus,
  geometric,
  erdos_renyi,
};

/// Parses the CLI spelling (complete | ring | dring | line | star | grid |
/// torus | geometric | er). Throws ddc::ConfigError on anything else.
[[nodiscard]] TopologyFamily parse_topology_family(const std::string& name);

/// The CLI spelling of a family (inverse of parse_topology_family).
[[nodiscard]] const char* topology_family_name(TopologyFamily family);

/// Declarative topology description — family plus size plus the family's
/// shape parameters, buildable on demand (and on every shard of a
/// distributed run, since construction is deterministic given the RNG).
struct TopologySpec {
  TopologyFamily family = TopologyFamily::complete;
  std::size_t nodes = 200;
  /// Connection radius for `geometric`; 0 selects the ddcsim-era default
  /// max(0.15, 2/√n).
  double radius = 0.0;
  /// Edge probability for `erdos_renyi`; 0 selects the ddcsim-era default
  /// max(0.05, 8/n).
  double edge_probability = 0.0;

  /// Builds the graph. Only `geometric` and `erdos_renyi` consume RNG
  /// draws; deterministic families ignore `rng` entirely, so the draw
  /// stream is identical to the historical per-tool construction code.
  [[nodiscard]] Topology build(stats::Rng& rng) const;

  /// The radius/probability actually used (resolving the 0 defaults).
  [[nodiscard]] double resolved_radius() const;
  [[nodiscard]] double resolved_edge_probability() const;
};

/// Fault injection, shared by the round and scale engines. The async
/// engine models the paper's reliable crash-free channels and ignores it.
struct FaultModel {
  /// Per-node probability of crashing at the end of each round (Fig. 4
  /// uses 0.05; 0 disables crashes).
  double crash_probability = 0.0;
  CrashSendPolicy crash_send_policy = CrashSendPolicy::avoid_crashed;
  /// Per-message silent loss probability (0 preserves the paper's
  /// reliable-link assumption; see RoundRunnerOptions for the caveats).
  double message_loss_probability = 0.0;
};

/// One configuration object for a whole simulation. Extends
/// CommonRunnerOptions, so the shared gossip knobs (selection, pattern,
/// environment seed) are this object's own fields.
struct EngineConfig : CommonRunnerOptions {
  TopologySpec topology;
  FaultModel faults;
  /// Math-kernel dispatch policy (linalg/simd.hpp): auto keeps the
  /// bit-exact tiers, avx2 additionally opts into the fast-math tier.
  /// Applied process-wide by the tools via linalg::simd::configure.
  linalg::simd::Mode simd = linalg::simd::Mode::auto_detect;
  /// Worker threads for the parallel phases: 1 = fully sequential, 0 =
  /// one per hardware thread. Results are identical at any setting.
  std::size_t parallelism = 1;

  // Protocol-layer parameters (the classifier nodes' NetworkConfig).
  /// Max collections per node (the paper's k).
  std::size_t k = 2;
  /// Weight quanta per unit weight (the paper's 1/q).
  std::int64_t quanta_per_unit = std::int64_t{1} << 20;
  /// Seed for node-local randomness (EM restarts). Kept separate from the
  /// inherited environment `seed` so protocol and environment streams
  /// never interfere — ddcsim historically sets protocol_seed = --seed
  /// and seed = --seed + 1.
  std::uint64_t protocol_seed = 1;

  /// Engine options sliced out for the round engines.
  [[nodiscard]] RoundRunnerOptions round_options() const;

  /// Builds the configured topology (see TopologySpec::build).
  [[nodiscard]] Topology build_topology(stats::Rng& rng) const;

  /// Throws ddc::ConfigError on out-of-range values (probabilities,
  /// nodes < 2, k = 0, unsupported SIMD mode).
  void validate() const;
};

}  // namespace ddc::sim
