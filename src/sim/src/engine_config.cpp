#include <ddc/sim/engine_config.hpp>

#include <algorithm>
#include <cmath>

#include <ddc/common/error.hpp>

namespace ddc::sim {

TopologyFamily parse_topology_family(const std::string& name) {
  if (name == "complete") return TopologyFamily::complete;
  if (name == "ring") return TopologyFamily::ring;
  if (name == "dring") return TopologyFamily::directed_ring;
  if (name == "line") return TopologyFamily::line;
  if (name == "star") return TopologyFamily::star;
  if (name == "grid") return TopologyFamily::grid;
  if (name == "torus") return TopologyFamily::torus;
  if (name == "geometric") return TopologyFamily::geometric;
  if (name == "er") return TopologyFamily::erdos_renyi;
  throw ConfigError("unknown topology '" + name +
                    "' (complete | ring | dring | line | star | grid | "
                    "torus | geometric | er)");
}

const char* topology_family_name(TopologyFamily family) {
  switch (family) {
    case TopologyFamily::complete: return "complete";
    case TopologyFamily::ring: return "ring";
    case TopologyFamily::directed_ring: return "dring";
    case TopologyFamily::line: return "line";
    case TopologyFamily::star: return "star";
    case TopologyFamily::grid: return "grid";
    case TopologyFamily::torus: return "torus";
    case TopologyFamily::geometric: return "geometric";
    case TopologyFamily::erdos_renyi: return "er";
  }
  return "?";
}

double TopologySpec::resolved_radius() const {
  if (radius > 0.0) return radius;
  return std::max(0.15, 2.0 / std::sqrt(static_cast<double>(nodes)));
}

double TopologySpec::resolved_edge_probability() const {
  if (edge_probability > 0.0) return edge_probability;
  return std::max(0.05, 8.0 / static_cast<double>(nodes));
}

Topology TopologySpec::build(stats::Rng& rng) const {
  const std::size_t n = nodes;
  switch (family) {
    case TopologyFamily::complete:
      return Topology::complete(n);
    case TopologyFamily::ring:
      return Topology::ring(n);
    case TopologyFamily::directed_ring:
      return Topology::directed_ring(n);
    case TopologyFamily::line:
      return Topology::line(n);
    case TopologyFamily::star:
      return Topology::star(n);
    case TopologyFamily::grid:
    case TopologyFamily::torus: {
      // Most-square exact factorization: rows is the largest divisor of
      // n with rows ≤ √n, so rows·cols == n precisely. The historical
      // ⌊√n⌋ packing rounded the vertex count UP for non-square n
      // (100000 → 316×317 = 100172), which breaks the engines' hard
      // one-node-per-vertex invariant. Prime n degenerates to a 1×n
      // line-with-torus-wrap; pass a composite node count for a real
      // 2-D lattice.
      std::size_t rows = 1;
      while ((rows + 1) * (rows + 1) <= n) ++rows;
      while (rows > 1 && n % rows != 0) --rows;
      return Topology::grid(rows, n / rows,
                            family == TopologyFamily::torus);
    }
    case TopologyFamily::geometric:
      return Topology::random_geometric(n, resolved_radius(), rng);
    case TopologyFamily::erdos_renyi:
      return Topology::erdos_renyi(n, resolved_edge_probability(), rng);
  }
  throw ConfigError("unhandled topology family");
}

RoundRunnerOptions EngineConfig::round_options() const {
  RoundRunnerOptions options;
  static_cast<CommonRunnerOptions&>(options) =
      static_cast<const CommonRunnerOptions&>(*this);
  options.crash_probability = faults.crash_probability;
  options.crash_send_policy = faults.crash_send_policy;
  options.message_loss_probability = faults.message_loss_probability;
  options.parallelism = parallelism;
  return options;
}

Topology EngineConfig::build_topology(stats::Rng& rng) const {
  return topology.build(rng);
}

void EngineConfig::validate() const {
  if (topology.nodes < 2) throw ConfigError("topology.nodes must be ≥ 2");
  if (topology.radius < 0.0) throw ConfigError("topology.radius must be ≥ 0");
  if (topology.edge_probability < 0.0 || topology.edge_probability > 1.0) {
    throw ConfigError("topology.edge_probability must be in [0, 1]");
  }
  if (faults.crash_probability < 0.0 || faults.crash_probability > 1.0) {
    throw ConfigError("faults.crash_probability must be in [0, 1]");
  }
  if (faults.message_loss_probability < 0.0 ||
      faults.message_loss_probability > 1.0) {
    throw ConfigError("faults.message_loss_probability must be in [0, 1]");
  }
  if (simd == linalg::simd::Mode::avx2 &&
      !(linalg::simd::compiled_with_avx2() &&
        linalg::simd::cpu_supports_avx2())) {
    throw ConfigError(
        "simd = avx2 requires an AVX2-capable CPU and an AVX2-enabled "
        "build (use auto or scalar)");
  }
  if (k == 0) throw ConfigError("k must be ≥ 1");
  if (quanta_per_unit < 1) throw ConfigError("quanta_per_unit must be ≥ 1");
}

}  // namespace ddc::sim
