// ddcsim — command-line driver for the distributed classification
// simulator.
//
// Examples:
//   ddcsim                                         # defaults: GM on clusters
//   ddcsim --protocol centroid --topology ring --nodes 64 --rounds 500
//   ddcsim --workload outliers --delta 10 --crash-prob 0.05
//   ddcsim --workload fence --k 7 --nodes 500 --topology geometric
//   ddcsim --protocol pushsum --workload loads --csv
//   ddcsim --nodes 100000 --topology ring --rounds 20
//   ddcsim --nodes 64 --rounds 30 --trace events.csv
//
// gm and centroid run on the struct-of-arrays engine (SoaRoundEngine).
// Two runs take RoundRunner instead: --trace, because only RoundRunner
// records events, and pushsum, which has no SoA binding. The two engines
// compute bit-identical runs, so --trace changes no other output line.
//
// The engine flags (--topology/--nodes/--pattern/--threads/...) are the
// shared cli::declare_engine_flags surface; only the tool-specific flags
// (--protocol, --workload, --rounds, output shape) are declared here.
#include <fstream>
#include <iostream>
#include <sstream>

#include <ddc/linalg/simd.hpp>
#include <ddc/cli/engine_flags.hpp>
#include <ddc/gossip/network.hpp>
#include <ddc/gossip/runners.hpp>
#include <ddc/io/table.hpp>
#include <ddc/metrics/classification_metrics.hpp>
#include <ddc/metrics/streaming.hpp>
#include <ddc/sim/round_runner.hpp>
#include <ddc/sim/trace.hpp>
#include <ddc/summaries/centroid.hpp>
#include <ddc/summaries/gaussian_summary.hpp>
#include <ddc/workload/scenarios.hpp>

#include "result_line.hpp"

namespace {

using ddc::linalg::Vector;

/// The flags that are ddcsim's own, on top of the shared engine surface.
struct ToolConfig {
  std::string protocol;
  std::string workload;
  std::size_t rounds;
  std::size_t report_every;
  double delta;
  bool csv;
  bool summary_line;
  bool timing;
  std::string trace_path;
};

std::vector<Vector> make_inputs(const ToolConfig& tool, std::size_t nodes,
                                ddc::stats::Rng& rng) {
  if (tool.workload == "clusters") {
    // Shared with ddcnode so networked and simulated runs on the same
    // seed classify identical inputs.
    return ddc::workload::two_clusters_inputs(nodes, rng);
  }
  if (tool.workload == "fence") {
    return ddc::workload::sample_inputs(ddc::workload::fig2_mixture(), nodes,
                                        rng);
  }
  if (tool.workload == "outliers") {
    const std::size_t n_out = std::max<std::size_t>(1, nodes / 20);
    return ddc::workload::outlier_scenario(tool.delta, rng, nodes - n_out,
                                           n_out)
        .inputs;
  }
  if (tool.workload == "loads") {
    return ddc::workload::load_balancing_inputs(nodes, rng);
  }
  throw ddc::ConfigError("unknown workload '" + tool.workload + "'");
}

void emit(const ToolConfig& tool, const ddc::io::Table& table) {
  if (tool.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

/// Writes the recorded trace (if requested) and reports where it went.
void flush_trace(const ToolConfig& tool, const ddc::sim::TraceRecorder& trace) {
  if (tool.trace_path.empty()) return;
  std::ofstream out(tool.trace_path);
  if (!out) {
    throw ddc::ConfigError("cannot write trace file '" + tool.trace_path +
                           "'");
  }
  trace.write_csv(out);
  std::cout << "\ntrace: " << trace.events().size() << " events -> "
            << tool.trace_path << '\n';
}

/// Prints node 0's classification table and the optional RESULT line —
/// shared tail of the traced and the SoA classifier runs.
template <typename Summary, typename SummaryPrinter, typename MeanFn>
void report_classification(const ToolConfig& tool,
                           const ddc::core::Classification<Summary>& c,
                           SummaryPrinter print_summary, MeanFn mean_of) {
  std::cout << "\nnode 0's classification after " << tool.rounds
            << " rounds:\n";
  ddc::io::Table result({"collection", "share", "summary"});
  for (std::size_t j = 0; j < c.size(); ++j) {
    result.add_row({static_cast<long long>(j), c.relative_weight(j),
                    print_summary(c[j].summary)});
  }
  emit(tool, result);
  if (tool.summary_line) {
    // Machine-readable mirror of node 0's classification, comparable
    // against a ddcnode cluster's RESULT lines (scripts/run_cluster.sh).
    std::cout << ddc::tools::result_line(c, mean_of) << '\n';
  }
}

void report_timing(double prepare_s, double absorb_s, double partition_s,
                   double em_s) {
  std::cout << "\nTIMING prepare_s=" << prepare_s << " absorb_s=" << absorb_s
            << " partition_s=" << partition_s << " em_s=" << em_s << '\n';
}

/// The --trace path for gm/centroid: RoundRunner records every event.
template <typename Policy, typename Node, typename SummaryPrinter,
          typename MeanFn>
int run_classifier(const ToolConfig& tool, ddc::sim::RoundRunner<Node> runner,
                   SummaryPrinter print_summary, MeanFn mean_of) {
  ddc::sim::TraceRecorder trace;
  runner.set_trace(&trace);

  ddc::io::Table progress({"round", "alive", "disagreement"}, 6);
  for (std::size_t r = 0; r < tool.rounds; ++r) {
    runner.run_round();
    if ((r + 1) % tool.report_every == 0 || r + 1 == tool.rounds) {
      progress.add_row(
          {static_cast<long long>(r + 1),
           static_cast<long long>(runner.alive_count()),
           ddc::metrics::max_disagreement_vs_first<Policy>(runner.nodes())});
    }
  }
  emit(tool, progress);

  report_classification(tool, runner.nodes()[0].classification(),
                        print_summary, mean_of);
  if (tool.timing) {
    // Per-phase wall-clock, from the accumulating counters in the runner
    // (prepare/absorb), the classifier engine (partition) and the EM
    // policy (em; 0 for policies without an EM stage). partition_s and
    // em_s are sums over nodes, so with --threads > 1 they can exceed
    // the enclosing absorb_s wall-clock.
    double partition_s = 0.0;
    double em_s = 0.0;
    for (const auto& node : runner.nodes()) {
      partition_s += node.classifier().stats().partition_seconds;
      if constexpr (requires {
                      node.classifier().partition_policy().em_seconds();
                    }) {
        em_s += node.classifier().partition_policy().em_seconds();
      }
    }
    const auto& t = runner.timings();
    report_timing(t.prepare_seconds, t.absorb_seconds, partition_s, em_s);
  }
  flush_trace(tool, trace);
  return 0;
}

/// The default gm/centroid path: same progress table, classification
/// report and TIMING line as run_classifier, with the streaming metrics
/// replacing the materializing ones (no per-node vector ever exists).
template <typename Policy, typename Engine, typename SummaryPrinter,
          typename MeanFn>
int run_scale(const ToolConfig& tool, Engine engine,
              SummaryPrinter print_summary, MeanFn mean_of) {
  ddc::io::Table progress({"round", "alive", "disagreement"}, 6);
  for (std::size_t r = 0; r < tool.rounds; ++r) {
    engine.run_round();
    if ((r + 1) % tool.report_every == 0 || r + 1 == tool.rounds) {
      progress.add_row(
          {static_cast<long long>(r + 1),
           static_cast<long long>(engine.alive_count()),
           ddc::metrics::streaming_max_disagreement<Policy>(engine)});
    }
  }
  emit(tool, progress);

  report_classification(tool, engine.classification_of(0), print_summary,
                        mean_of);
  if (tool.timing) {
    // Same TIMING contract as RoundRunner: partition_s/em_s are
    // sums over the engine's scratch classifiers, which accumulate
    // exactly one receive per node per delivery.
    const auto& t = engine.timings();
    report_timing(t.prepare_seconds, t.absorb_seconds,
                  engine.partition_seconds(), engine.em_seconds());
  }
  return 0;
}

int run_push_sum(const ToolConfig& tool,
                 ddc::sim::RoundRunner<ddc::gossip::PushSumNode> runner,
                 const std::vector<Vector>& inputs) {
  ddc::sim::TraceRecorder trace;
  if (!tool.trace_path.empty()) runner.set_trace(&trace);

  // True average for reference.
  Vector truth(inputs.front().dim());
  for (const auto& v : inputs) truth += v / static_cast<double>(inputs.size());

  ddc::io::Table progress({"round", "alive", "max estimate error"}, 6);
  for (std::size_t r = 0; r < tool.rounds; ++r) {
    runner.run_round();
    if ((r + 1) % tool.report_every == 0 || r + 1 == tool.rounds) {
      double worst = 0.0;
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (!runner.alive(i)) continue;
        worst = std::max(
            worst, ddc::linalg::distance2(runner.nodes()[i].estimate(), truth));
      }
      progress.add_row({static_cast<long long>(r + 1),
                        static_cast<long long>(runner.alive_count()), worst});
    }
  }
  emit(tool, progress);
  std::ostringstream estimate;
  estimate << runner.nodes()[0].estimate();
  std::cout << "\nnode 0's average estimate: " << estimate.str() << '\n';
  flush_trace(tool, trace);
  return 0;
}

std::string describe(const Vector& v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

std::string describe(const ddc::stats::Gaussian& g) {
  std::ostringstream os;
  os << "N(" << g.mean() << ", diag≈[";
  for (std::size_t i = 0; i < g.dim(); ++i) {
    if (i > 0) os << ", ";
    os << g.cov()(i, i);
  }
  os << "])";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  ddc::cli::Flags flags("ddcsim",
                        "gossip-based distributed data classification "
                        "simulator (Eyal, Keidar & Rom, PODC 2010)");
  flags.declare("protocol", "gm | centroid | pushsum", "gm");
  flags.declare("workload", "clusters | fence | outliers | loads", "clusters");
  flags.declare("rounds", "gossip rounds to run", "100");
  flags.declare("report-every", "progress row interval", "10");
  flags.declare("delta", "outlier distance (outliers workload)", "10");
  flags.declare("trace", "write an event trace CSV to this path", "");
  flags.declare_bool("csv", "emit CSV instead of aligned tables");
  flags.declare_bool("summary-line",
                     "also print node 0's final classification as a "
                     "machine-readable RESULT line (gm/centroid)");
  ddc::cli::declare_engine_flags(flags);

  try {
    if (!flags.parse(argc, argv)) {
      std::cout << flags.help_text();
      return 0;
    }
    const ddc::sim::EngineConfig config = ddc::cli::parse_engine_config(flags);
    ddc::linalg::simd::configure(config.simd);
    const ToolConfig tool{
        flags.get("protocol"),
        flags.get("workload"),
        static_cast<std::size_t>(flags.get_int("rounds")),
        static_cast<std::size_t>(flags.get_int("report-every")),
        flags.get_double("delta"),
        flags.get_bool("csv"),
        flags.get_bool("summary-line"),
        ddc::cli::timing_requested(flags),
        flags.get("trace"),
    };

    // Workload inputs and the (possibly random) topology share one RNG
    // seeded with --seed, in this order — unchanged since the first
    // ddcsim so existing seeds reproduce bit-identically.
    ddc::stats::Rng rng(config.protocol_seed);
    const std::vector<Vector> inputs =
        make_inputs(tool, config.topology.nodes, rng);
    ddc::sim::Topology topology = config.build_topology(rng);

    const bool traced = !tool.trace_path.empty();
    if (tool.protocol == "gm") {
      auto print = [](const ddc::stats::Gaussian& g) { return describe(g); };
      auto mean = [](const ddc::stats::Gaussian& g) { return g.mean(); };
      if (traced) {
        return run_classifier<ddc::summaries::GaussianPolicy>(
            tool,
            ddc::sim::make_gm_round_runner(std::move(topology), inputs,
                                           config),
            print, mean);
      }
      return run_scale<ddc::summaries::GaussianPolicy>(
          tool,
          ddc::gossip::make_gm_scale_engine(std::move(topology), inputs,
                                            config),
          print, mean);
    }
    if (tool.protocol == "centroid") {
      auto print = [](const Vector& v) { return describe(v); };
      auto mean = [](const Vector& v) { return v; };
      if (traced) {
        return run_classifier<ddc::summaries::CentroidPolicy>(
            tool,
            ddc::sim::make_centroid_round_runner(std::move(topology), inputs,
                                                 config),
            print, mean);
      }
      return run_scale<ddc::summaries::CentroidPolicy>(
          tool,
          ddc::gossip::make_centroid_scale_engine(std::move(topology), inputs,
                                                  config),
          print, mean);
    }
    if (tool.protocol == "pushsum") {
      return run_push_sum(tool,
                          ddc::sim::make_push_sum_round_runner(
                              std::move(topology), inputs, config),
                          inputs);
    }
    throw ddc::ConfigError("unknown protocol '" + tool.protocol + "'");
  } catch (const ddc::Error& e) {
    std::cerr << "ddcsim: " << e.what() << '\n';
    return 1;
  }
}
