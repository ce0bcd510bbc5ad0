// EngineConfig: the unified simulation configuration object.
#include <ddc/sim/engine_config.hpp>

#include <ddc/common/error.hpp>

#include <gtest/gtest.h>

namespace ddc::sim {
namespace {

TEST(EngineConfig, TopologyFamilyNamesRoundTrip) {
  for (const TopologyFamily family :
       {TopologyFamily::complete, TopologyFamily::ring,
        TopologyFamily::directed_ring, TopologyFamily::line,
        TopologyFamily::star, TopologyFamily::grid, TopologyFamily::torus,
        TopologyFamily::geometric, TopologyFamily::erdos_renyi}) {
    EXPECT_EQ(parse_topology_family(topology_family_name(family)), family);
  }
  EXPECT_THROW((void)parse_topology_family("moebius"), ConfigError);
}

TEST(EngineConfig, TopologySpecDefaultsMatchDdcsimFormulas) {
  TopologySpec spec;
  spec.nodes = 200;
  EXPECT_DOUBLE_EQ(spec.resolved_radius(), 0.15);  // max(0.15, 2/√200)
  EXPECT_DOUBLE_EQ(spec.resolved_edge_probability(), 0.05);  // max(0.05, 8/200)
  spec.nodes = 64;
  EXPECT_DOUBLE_EQ(spec.resolved_radius(), 0.25);            // 2/8
  EXPECT_DOUBLE_EQ(spec.resolved_edge_probability(), 0.125);  // 8/64
  spec.radius = 0.4;
  spec.edge_probability = 0.3;
  EXPECT_DOUBLE_EQ(spec.resolved_radius(), 0.4);
  EXPECT_DOUBLE_EQ(spec.resolved_edge_probability(), 0.3);
}

TEST(EngineConfig, TopologySpecBuildsEveryFamily) {
  stats::Rng rng(1);
  for (const TopologyFamily family :
       {TopologyFamily::complete, TopologyFamily::ring,
        TopologyFamily::directed_ring, TopologyFamily::line,
        TopologyFamily::star, TopologyFamily::geometric,
        TopologyFamily::erdos_renyi}) {
    TopologySpec spec;
    spec.family = family;
    spec.nodes = 25;
    EXPECT_EQ(spec.build(rng).num_nodes(), 25U) << topology_family_name(family);
  }
  // Grid packs the most-square exact factorization, so rows·cols == n
  // for every n — the engines require one node per vertex.
  TopologySpec grid;
  grid.family = TopologyFamily::grid;
  grid.nodes = 25;
  EXPECT_EQ(grid.build(rng).num_nodes(), 25U);  // 5×5
  grid.nodes = 24;
  EXPECT_EQ(grid.build(rng).num_nodes(), 24U);  // 4×6
  grid.nodes = 100000;
  EXPECT_EQ(grid.build(rng).num_nodes(), 100000U);  // 250×400, not 316×317
  grid.nodes = 13;
  EXPECT_EQ(grid.build(rng).num_nodes(), 13U);  // prime: 1×13 line
}

TEST(EngineConfig, RoundOptionsSliceCarriesEverything) {
  EngineConfig config;
  config.selection = NeighborSelection::round_robin;
  config.pattern = GossipPattern::push_pull;
  config.seed = 99;
  config.faults.crash_probability = 0.05;
  config.faults.crash_send_policy = CrashSendPolicy::drop_at_crashed;
  config.faults.message_loss_probability = 0.1;
  config.parallelism = 4;

  const RoundRunnerOptions round = config.round_options();
  EXPECT_EQ(round.selection, NeighborSelection::round_robin);
  EXPECT_EQ(round.pattern, GossipPattern::push_pull);
  EXPECT_EQ(round.seed, 99U);
  EXPECT_DOUBLE_EQ(round.crash_probability, 0.05);
  EXPECT_EQ(round.crash_send_policy, CrashSendPolicy::drop_at_crashed);
  EXPECT_DOUBLE_EQ(round.message_loss_probability, 0.1);
  EXPECT_EQ(round.parallelism, 4U);
}

TEST(EngineConfig, ValidateRejectsBadValues) {
  EngineConfig config;
  config.validate();  // defaults are valid

  EngineConfig bad = config;
  bad.topology.nodes = 1;
  EXPECT_THROW(bad.validate(), ConfigError);

  bad = config;
  bad.faults.crash_probability = 1.5;
  EXPECT_THROW(bad.validate(), ConfigError);

  bad = config;
  bad.faults.message_loss_probability = -0.1;
  EXPECT_THROW(bad.validate(), ConfigError);

  bad = config;
  bad.k = 0;
  EXPECT_THROW(bad.validate(), ConfigError);

  bad = config;
  bad.quanta_per_unit = 0;
  EXPECT_THROW(bad.validate(), ConfigError);
}

}  // namespace
}  // namespace ddc::sim
