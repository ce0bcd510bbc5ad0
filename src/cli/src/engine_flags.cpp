#include <ddc/cli/engine_flags.hpp>

#include <string>

#include <ddc/linalg/simd.hpp>

namespace ddc::cli {
namespace {

const char* pattern_name(sim::GossipPattern pattern) {
  switch (pattern) {
    case sim::GossipPattern::push: return "push";
    case sim::GossipPattern::pull: return "pull";
    case sim::GossipPattern::push_pull: return "push-pull";
  }
  return "?";
}

sim::GossipPattern parse_pattern(const std::string& name) {
  if (name == "push") return sim::GossipPattern::push;
  if (name == "pull") return sim::GossipPattern::pull;
  if (name == "push-pull") return sim::GossipPattern::push_pull;
  throw ConfigError("unknown pattern '" + name + "' (push | pull | push-pull)");
}

/// The exponent e with 2^e == quanta, for rendering the --quanta-exp
/// default; falls back to 20 for non-power-of-two programmatic defaults.
int quanta_exponent(std::int64_t quanta) {
  for (int e = 0; e <= 62; ++e) {
    if ((std::int64_t{1} << e) == quanta) return e;
  }
  return 20;
}

}  // namespace

void declare_engine_flags(Flags& flags, const sim::EngineConfig& defaults,
                          const EngineFlagSet& set) {
  if (set.topology) {
    flags.declare("topology",
                  "complete | ring | dring | line | star | grid | torus | "
                  "geometric | er",
                  topology_family_name(defaults.topology.family));
    flags.declare("nodes", "number of nodes",
                  std::to_string(defaults.topology.nodes));
    flags.declare("radius",
                  "connection radius for --topology geometric "
                  "(0 = max(0.15, 2/sqrt(n)))",
                  "0");
    flags.declare("er-prob",
                  "edge probability for --topology er (0 = max(0.05, 8/n))",
                  "0");
  }
  if (set.gossip) {
    flags.declare("pattern", "push | pull | push-pull",
                  pattern_name(defaults.pattern));
    flags.declare_bool("push-pull", "shorthand for --pattern push-pull");
    flags.declare_bool("round-robin", "round-robin neighbor selection");
  }
  if (set.faults) {
    flags.declare("crash-prob", "per-round crash probability", "0");
    flags.declare("loss-prob", "per-message loss probability", "0");
  }
  if (set.parallelism) {
    flags.declare("threads",
                  "worker threads for the prepare/absorb phases (0 = one per "
                  "hardware thread); results are identical at any setting",
                  std::to_string(defaults.parallelism));
  }
  if (set.protocol) {
    flags.declare("k", "max collections per node", std::to_string(defaults.k));
    flags.declare("quanta-exp", "weight quanta per unit = 2^this",
                  std::to_string(quanta_exponent(defaults.quanta_per_unit)));
  }
  if (set.simd) {
    flags.declare("simd",
                  "math-kernel dispatch: auto (bit-exact SIMD when the CPU "
                  "supports it) | scalar (reference kernels) | avx2 (require "
                  "AVX2 and enable the fast-math scoring tier — results may "
                  "differ in the last ulps)",
                  linalg::simd::mode_name(defaults.simd));
  }
  if (set.timing) {
    flags.declare_bool("timing",
                       "print accumulated per-phase wall-clock (prepare / "
                       "absorb / partition / em) after the run (gm/centroid)");
  }
  flags.declare("seed", "RNG seed", std::to_string(defaults.protocol_seed));
}

sim::EngineConfig parse_engine_config(const Flags& flags,
                                      const sim::EngineConfig& defaults,
                                      const EngineFlagSet& set) {
  sim::EngineConfig config = defaults;

  if (set.topology) {
    config.topology.family = sim::parse_topology_family(flags.get("topology"));
    if (flags.get_int("nodes") < 2) {
      throw ConfigError("--nodes must be ≥ 2");
    }
    config.topology.nodes = static_cast<std::size_t>(flags.get_int("nodes"));
    config.topology.radius = flags.get_double("radius");
    config.topology.edge_probability = flags.get_double("er-prob");
  }
  if (set.gossip) {
    config.pattern = flags.get_bool("push-pull")
                         ? sim::GossipPattern::push_pull
                         : parse_pattern(flags.get("pattern"));
    config.selection = flags.get_bool("round-robin")
                           ? sim::NeighborSelection::round_robin
                           : sim::NeighborSelection::uniform_random;
  }
  if (set.faults) {
    config.faults.crash_probability = flags.get_double("crash-prob");
    config.faults.message_loss_probability = flags.get_double("loss-prob");
  }
  if (set.parallelism) {
    if (flags.get_int("threads") < 0) {
      throw ConfigError(
          "--threads must be ≥ 0 (0 = one per hardware thread)");
    }
    config.parallelism = static_cast<std::size_t>(flags.get_int("threads"));
  }
  if (set.protocol) {
    config.k = static_cast<std::size_t>(flags.get_int("k"));
    const long long quanta_exp = flags.get_int("quanta-exp");
    if (quanta_exp < 0 || quanta_exp > 62) {
      throw ConfigError("--quanta-exp must be in [0, 62]");
    }
    config.quanta_per_unit = std::int64_t{1} << quanta_exp;
  }
  if (set.simd) {
    const std::string name = flags.get("simd");
    const auto mode = linalg::simd::parse_mode(name);
    if (!mode) {
      throw ConfigError("unknown simd mode '" + name +
                        "' (auto | scalar | avx2)");
    }
    config.simd = *mode;
  }

  // The historical ddcsim seed split: protocol (node-local EM restarts)
  // gets --seed verbatim, the environment stream gets --seed + 1.
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  config.protocol_seed = seed;
  config.seed = seed + 1;

  config.validate();
  return config;
}

bool timing_requested(const Flags& flags) {
  return flags.declared("timing") && flags.get_bool("timing");
}

}  // namespace ddc::cli
