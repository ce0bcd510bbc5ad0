// Shared engine flags — one declaration and one parse for every binary.
//
// ddcsim, ddcnode and the bench drivers used to each hand-roll the same
// dozen flag declarations and the same Config-struct plumbing; a new knob
// meant touching every main(). declare_engine_flags()/parse_engine_config()
// collapse that into one seam that produces a sim::EngineConfig, keeping
// --threads/--pattern/--timing and the did-you-mean hints identical across
// tools. Binaries opt out of flag groups that make no sense for them
// (ddcnode has no crash model — crashes are real processes dying there).
#pragma once

#include <ddc/cli/flags.hpp>
#include <ddc/sim/engine_config.hpp>

namespace ddc::cli {

/// Which flag groups a binary wants. Everything defaults to on; a binary
/// switches off the groups it implements differently (or not at all).
struct EngineFlagSet {
  bool topology = true;     ///< --topology --nodes
  bool gossip = true;       ///< --pattern --push-pull --round-robin
  bool faults = true;       ///< --crash-prob --loss-prob
  bool parallelism = true;  ///< --threads
  bool protocol = true;     ///< --k --quanta-exp
  bool backend = true;      ///< --engine (object | soa | auto)
  bool simd = true;         ///< --simd (auto | scalar | avx2)
  bool timing = true;       ///< --timing
};

/// Declares the shared engine flags on `flags` with the historical ddcsim
/// defaults (overridable through `defaults`, so a binary can change
/// e.g. the default --nodes).
void declare_engine_flags(Flags& flags, const sim::EngineConfig& defaults = {},
                          const EngineFlagSet& set = {});

/// Reads the flags declared by declare_engine_flags back out of a parsed
/// `flags` into an EngineConfig (validated; throws ddc::ConfigError /
/// FlagError on bad values). Groups disabled at declaration time keep
/// `defaults`' values. The --seed flag feeds both streams the way ddcsim
/// always has: protocol_seed = seed, environment seed = seed + 1.
[[nodiscard]] sim::EngineConfig parse_engine_config(
    const Flags& flags, const sim::EngineConfig& defaults = {},
    const EngineFlagSet& set = {});

/// True iff --timing was declared (set.timing) and requested.
[[nodiscard]] bool timing_requested(const Flags& flags);

}  // namespace ddc::cli
