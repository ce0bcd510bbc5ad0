// Shared engine flag parsing (cli::declare_engine_flags /
// cli::parse_engine_config) — the one seam every binary's command line
// goes through.
#include <ddc/cli/engine_flags.hpp>

#include <ddc/common/error.hpp>

#include <gtest/gtest.h>

namespace ddc::cli {
namespace {

Flags make_flags(const sim::EngineConfig& defaults = {},
                 const EngineFlagSet& set = {}) {
  Flags flags("testtool", "test");
  declare_engine_flags(flags, defaults, set);
  return flags;
}

TEST(EngineFlags, DefaultsReproduceDdcsimDefaults) {
  Flags flags = make_flags();
  ASSERT_TRUE(flags.parse({}));
  const sim::EngineConfig config = parse_engine_config(flags);
  EXPECT_EQ(config.topology.family, sim::TopologyFamily::complete);
  EXPECT_EQ(config.topology.nodes, 200U);
  EXPECT_EQ(config.pattern, sim::GossipPattern::push);
  EXPECT_EQ(config.selection, sim::NeighborSelection::uniform_random);
  EXPECT_EQ(config.k, 2U);
  EXPECT_EQ(config.quanta_per_unit, std::int64_t{1} << 20);
  EXPECT_EQ(config.parallelism, 1U);
  // The ddcsim seed split: protocol = --seed, environment = --seed + 1.
  EXPECT_EQ(config.protocol_seed, 1U);
  EXPECT_EQ(config.seed, 2U);
}

TEST(EngineFlags, ParsesTheFullFlagSurface) {
  Flags flags = make_flags();
  ASSERT_TRUE(flags.parse(
      {"--topology=geometric", "--nodes=5000", "--radius=0.05",
       "--pattern=pull", "--round-robin", "--crash-prob=0.05",
       "--loss-prob=0.1", "--threads=8", "--k=7", "--quanta-exp=16",
       "--seed=42", "--timing"}));
  const sim::EngineConfig config = parse_engine_config(flags);
  EXPECT_EQ(config.topology.family, sim::TopologyFamily::geometric);
  EXPECT_EQ(config.topology.nodes, 5000U);
  EXPECT_DOUBLE_EQ(config.topology.radius, 0.05);
  EXPECT_EQ(config.pattern, sim::GossipPattern::pull);
  EXPECT_EQ(config.selection, sim::NeighborSelection::round_robin);
  EXPECT_DOUBLE_EQ(config.faults.crash_probability, 0.05);
  EXPECT_DOUBLE_EQ(config.faults.message_loss_probability, 0.1);
  EXPECT_EQ(config.parallelism, 8U);
  EXPECT_EQ(config.k, 7U);
  EXPECT_EQ(config.quanta_per_unit, std::int64_t{1} << 16);
  EXPECT_EQ(config.protocol_seed, 42U);
  EXPECT_EQ(config.seed, 43U);
  EXPECT_TRUE(timing_requested(flags));
}

TEST(EngineFlags, PushPullShorthandWins) {
  Flags flags = make_flags();
  ASSERT_TRUE(flags.parse({"--pattern=pull", "--push-pull"}));
  EXPECT_EQ(parse_engine_config(flags).pattern,
            sim::GossipPattern::push_pull);
}

TEST(EngineFlags, ValidationMirrorsDdcsim) {
  {
    Flags flags = make_flags();
    ASSERT_TRUE(flags.parse({"--nodes=1"}));
    EXPECT_THROW((void)parse_engine_config(flags), ConfigError);
  }
  {
    Flags flags = make_flags();
    ASSERT_TRUE(flags.parse({"--threads=-1"}));
    EXPECT_THROW((void)parse_engine_config(flags), ConfigError);
  }
  {
    Flags flags = make_flags();
    ASSERT_TRUE(flags.parse({"--quanta-exp=63"}));
    EXPECT_THROW((void)parse_engine_config(flags), ConfigError);
  }
  {
    Flags flags = make_flags();
    ASSERT_TRUE(flags.parse({"--pattern=sideways"}));
    EXPECT_THROW((void)parse_engine_config(flags), ConfigError);
  }
}

TEST(EngineFlags, DidYouMeanHintsSurviveTheSharedDeclarations) {
  Flags flags = make_flags();
  EXPECT_EQ(flags.suggest("topolgy").value_or(""), "topology");
  EXPECT_EQ(flags.suggest("thread").value_or(""), "threads");
  EXPECT_EQ(flags.suggest("patern").value_or(""), "pattern");
}

TEST(EngineFlags, DisabledGroupsKeepDefaultsAndStayUndeclared) {
  EngineFlagSet set;
  set.faults = false;
  set.timing = false;
  sim::EngineConfig defaults;
  defaults.faults.crash_probability = 0.25;  // kept verbatim

  Flags flags = make_flags(defaults, set);
  EXPECT_THROW((void)flags.parse({"--crash-prob=0.5"}), FlagError);

  Flags clean = make_flags(defaults, set);
  ASSERT_TRUE(clean.parse({"--nodes=64"}));
  const sim::EngineConfig config = parse_engine_config(clean, defaults, set);
  EXPECT_DOUBLE_EQ(config.faults.crash_probability, 0.25);
  EXPECT_EQ(config.topology.nodes, 64U);
  EXPECT_FALSE(timing_requested(clean));
}

TEST(EngineFlags, CustomDefaultsShowUpInDeclaration) {
  sim::EngineConfig defaults;
  defaults.topology.nodes = 1024;
  defaults.topology.family = sim::TopologyFamily::ring;
  defaults.k = 5;
  Flags flags = make_flags(defaults);
  ASSERT_TRUE(flags.parse({}));
  const sim::EngineConfig config = parse_engine_config(flags, defaults);
  EXPECT_EQ(config.topology.nodes, 1024U);
  EXPECT_EQ(config.topology.family, sim::TopologyFamily::ring);
  EXPECT_EQ(config.k, 5U);
}

}  // namespace
}  // namespace ddc::cli
