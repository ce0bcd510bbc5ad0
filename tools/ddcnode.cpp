// ddcnode — one shard process of a networked classification cluster.
//
// A cluster is S ddcnode processes exchanging gossip over UDP. Each
// process runs one ShardEngine hosting its share of the --nodes
// simulated nodes; cross-shard messages travel as one batched frame per
// peer shard per round. Every process derives the full input set, the
// topology and the shard map from the same --seed/--nodes flags —
// exactly how a sensor deployment ships one flashed configuration to
// every mote — so together the S processes replay the round-based
// protocol ddcsim runs in-process, and a healthy cluster's RESULT line
// matches `ddcsim --summary-line` bit for bit.
//
// Lifecycle: bind socket → wait until every peer shard has been heard
// from (bounded by --start-timeout-ms) → run --rounds lockstep rounds →
// drain → print shard-local stats and the first owned node's final
// classification as a RESULT line on stdout.
//
//   ddcnode --shard-id 0 --num-shards 4 --nodes 4000 --protocol gm
//
// The shared engine flags (--topology/--nodes/--k/--quanta-exp/--seed)
// come from cli::declare_engine_flags and mean what they mean to
// ddcsim: --nodes is the global node count, which ShardMap splits
// across the --num-shards processes. scripts/run_cluster.sh launches
// and checks a whole cluster.
#include <chrono>
#include <iostream>
#include <sstream>
#include <thread>

#include <ddc/linalg/simd.hpp>
#include <ddc/cli/engine_flags.hpp>
#include <ddc/net/udp.hpp>
#include <ddc/shard/factories.hpp>
#include <ddc/sim/topology.hpp>
#include <ddc/stats/rng.hpp>
#include <ddc/workload/scenarios.hpp>

#include "result_line.hpp"

namespace {

using ddc::linalg::Vector;

/// Which engine flag groups ddcnode exposes. Faults stay off — the
/// engine fault model simulates lossy channels, while ddcnode's own
/// --loss-prob injects receive-side datagram drops in a real transport.
constexpr ddc::cli::EngineFlagSet kNodeFlagSet{.topology = true,
                                               .gossip = false,
                                               .faults = false,
                                               .parallelism = false,
                                               .protocol = true,
                                               .timing = false};

struct Config {
  std::uint16_t base_port;
  std::string host;
  std::string protocol;
  std::string workload;
  std::size_t rounds;
  std::size_t tick_ms;
  std::size_t drain_ticks;
  std::size_t start_timeout_ms;
  std::size_t probe_timeout_ms;
  int probe_retries;
  double loss_prob;
  bool verbose;
  bool stats_json;
  std::size_t num_shards;
  std::size_t shard_id;
  std::size_t max_exchange_polls;
  ddc::shard::Partitioner shard_map;
  ddc::sim::EngineConfig engine;

  [[nodiscard]] std::size_t nodes() const { return engine.topology.nodes; }
  [[nodiscard]] std::uint64_t seed() const { return engine.protocol_seed; }
};

std::vector<Vector> make_inputs(const Config& config, ddc::stats::Rng& rng) {
  if (config.workload == "clusters") {
    return ddc::workload::two_clusters_inputs(config.nodes(), rng);
  }
  if (config.workload == "fence") {
    return ddc::workload::sample_inputs(ddc::workload::fig2_mixture(),
                                        config.nodes(), rng);
  }
  throw ddc::ConfigError("unknown workload '" + config.workload + "'");
}

/// One endpoint per shard (not per node): shard s listens on
/// base-port + s.
ddc::net::UdpTransport make_transport(const Config& config) {
  std::vector<ddc::net::UdpPeer> peers;
  peers.reserve(config.num_shards);
  for (std::size_t s = 0; s < config.num_shards; ++s) {
    peers.push_back({config.host,
                     static_cast<std::uint16_t>(config.base_port + s)});
  }
  ddc::net::UdpOptions options;
  options.probe_timeout = std::chrono::milliseconds(config.probe_timeout_ms);
  options.probe_retries = config.probe_retries;
  options.inject_receive_loss = config.loss_prob;
  options.loss_seed =
      ddc::stats::derive_seed(config.seed(), 7000 + config.shard_id);
  return ddc::net::UdpTransport(
      static_cast<ddc::net::PeerId>(config.shard_id), std::move(peers),
      options);
}

/// One-line JSON stats dump (--stats-json): the engine's batch-exchange
/// counters plus per-peer link counters. Printed to stdout so
/// run_cluster.sh can assert on batching efficiency.
std::string stats_json(const Config& config,
                       const ddc::net::UdpTransport& transport,
                       const ddc::shard::ShardEngineStats& engine) {
  const double records_per_frame =
      engine.batch_frames_sent > 0
          ? static_cast<double>(engine.batch_records_sent) /
                static_cast<double>(engine.batch_frames_sent)
          : 0.0;
  std::ostringstream os;
  os << "{\"id\":" << config.shard_id
     << ",\"injected_losses\":" << transport.injected_losses()
     << ",\"shard_map\":\""
     << ddc::shard::partitioner_name(config.shard_map) << '"'
     << ",\"engine\":{\"batch_frames_sent\":" << engine.batch_frames_sent
     << ",\"batch_records_sent\":" << engine.batch_records_sent
     << ",\"batch_frames_received\":" << engine.batch_frames_received
     << ",\"batch_records_received\":" << engine.batch_records_received
     << ",\"acks_received\":" << engine.acks_received
     << ",\"retransmits\":" << engine.retransmits
     << ",\"decode_errors\":" << engine.decode_errors
     << ",\"peer_timeouts\":" << engine.peer_timeouts
     << ",\"unplanned_records\":" << engine.unplanned_records
     << ",\"cut_edges\":" << engine.cut_edges
     << ",\"boundary_nodes\":" << engine.boundary_nodes
     << ",\"polls_during_compute\":" << engine.polls_during_compute
     << ",\"records_per_frame\":" << records_per_frame << "}";
  os << ",\"peers\":[";
  for (std::size_t p = 0; p < config.num_shards; ++p) {
    const auto peer = static_cast<ddc::net::PeerId>(p);
    const auto& s = transport.stats(peer);
    if (p > 0) os << ',';
    os << "{\"peer\":" << p << ",\"frames_sent\":" << s.frames_sent
       << ",\"bytes_sent\":" << s.bytes_sent
       << ",\"frames_received\":" << s.frames_received
       << ",\"bytes_received\":" << s.bytes_received
       << ",\"send_failures\":" << s.send_failures << ",\"reachable\":"
       << (p == config.shard_id || transport.peer_reachable(peer) ? "true"
                                                                  : "false")
       << '}';
  }
  os << "]}";
  return os.str();
}

/// Startup barrier: wait (bounded) until every peer shard has been heard
/// from at least once — its probes count — so a slow-starting process
/// does not get timed out of the first round. Proceeds after the
/// timeout regardless: a shard that is down from the start must not
/// wedge the cluster. Discarding data frames here is safe: every batch
/// is retransmitted until acked, so nothing a fast-starting peer sent
/// during our barrier is lost.
void await_peers(const Config& config, ddc::net::UdpTransport& transport) {
  if (config.num_shards <= 1) return;
  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(config.start_timeout_ms);
  while (Clock::now() < deadline) {
    transport.maintain();
    (void)transport.receive();
    bool all_heard = true;
    for (std::size_t p = 0; p < config.num_shards; ++p) {
      if (p == config.shard_id) continue;
      if (transport.stats(static_cast<ddc::net::PeerId>(p)).frames_received ==
          0) {
        all_heard = false;
        break;
      }
    }
    if (all_heard) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::cerr << "ddcnode shard " << config.shard_id
            << ": start barrier timed out; proceeding\n";
}

template <typename Engine, typename MeanFn>
int run(const Config& config, ddc::net::UdpTransport& transport,
        Engine& engine, MeanFn mean_of) {
  await_peers(config, transport);
  engine.run_rounds(config.rounds);
  // Drain: a lagging or restarted peer shard may still be replaying
  // rounds and needs this shard's re-acks (service() answers them
  // without opening a new round).
  const auto tick = std::chrono::milliseconds(config.tick_ms);
  for (std::size_t t = 0; t < config.drain_ticks; ++t) {
    engine.service();
    transport.maintain();
    std::this_thread::sleep_for(tick);
  }
  if (config.verbose) {
    const auto& st = engine.stats();
    std::cerr << "ddcnode shard " << config.shard_id << ": frames_sent="
              << st.batch_frames_sent << " records_sent="
              << st.batch_records_sent << " retransmits=" << st.retransmits
              << " peer_timeouts=" << st.peer_timeouts
              << " injected_losses=" << transport.injected_losses() << '\n';
  }
  if (config.stats_json) {
    std::cout << stats_json(config, transport, engine.stats()) << '\n';
  }
  // Every shard reports its first owned node; shard 0's line is global
  // node 0's classification, directly comparable with ddcsim's. Explicit
  // flush: run_cluster.sh consumes this line from a pipe and must see it
  // even if the process is subsequently killed.
  std::cout << ddc::tools::result_line(
                   engine.nodes().front().classification(), mean_of)
            << '\n'
            << std::flush;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ddc::cli::Flags flags("ddcnode",
                        "one shard process of a networked distributed-"
                        "classification cluster (batched gossip over UDP)");
  flags.declare("base-port", "shard s listens on base-port + s", "9800");
  flags.declare("host", "IPv4 address every shard binds and dials",
                "127.0.0.1");
  flags.declare("protocol", "gm | centroid", "gm");
  flags.declare("workload", "clusters | fence", "clusters");
  flags.declare("rounds", "lockstep gossip rounds to run", "60");
  flags.declare("tick-ms", "milliseconds between drain ticks", "20");
  flags.declare("drain-ticks",
                "service-only ticks after the last round (re-acks for "
                "lagging peers)",
                "25");
  flags.declare("start-timeout-ms", "max wait for peers at startup", "5000");
  flags.declare("probe-timeout-ms", "silence span before probing a peer",
                "250");
  flags.declare("probe-retries", "unanswered probes before a peer is dead",
                "3");
  flags.declare("loss-prob",
                "probability of dropping each incoming datagram (loss "
                "injection for tests; the batch protocol retransmits "
                "through it)",
                "0");
  flags.declare("num-shards",
                "shard processes in the cluster; --nodes are split "
                "across them",
                "1");
  flags.declare("shard-id", "this process's shard index", "0");
  flags.declare("max-exchange-polls",
                "polls without traffic before a peer shard is declared "
                "dead (0 waits forever)",
                "4000");
  flags.declare("shard-map", "contiguous | edgecut node->shard assignment",
                "contiguous");
  flags.declare_bool("stats-json",
                     "print one line of JSON link/batch statistics to "
                     "stdout before the RESULT line");
  flags.declare_bool("verbose", "print traffic stats to stderr");
  ddc::cli::declare_engine_flags(flags, {}, kNodeFlagSet);

  try {
    if (!flags.parse(argc, argv)) {
      std::cout << flags.help_text();
      return 0;
    }
    Config config{
        static_cast<std::uint16_t>(flags.get_int("base-port")),
        flags.get("host"),
        flags.get("protocol"),
        flags.get("workload"),
        static_cast<std::size_t>(flags.get_int("rounds")),
        static_cast<std::size_t>(flags.get_int("tick-ms")),
        static_cast<std::size_t>(flags.get_int("drain-ticks")),
        static_cast<std::size_t>(flags.get_int("start-timeout-ms")),
        static_cast<std::size_t>(flags.get_int("probe-timeout-ms")),
        static_cast<int>(flags.get_int("probe-retries")),
        flags.get_double("loss-prob"),
        flags.get_bool("verbose"),
        flags.get_bool("stats-json"),
        static_cast<std::size_t>(flags.get_int("num-shards")),
        static_cast<std::size_t>(flags.get_int("shard-id")),
        static_cast<std::size_t>(flags.get_int("max-exchange-polls")),
        ddc::shard::parse_partitioner(flags.get("shard-map")),
        ddc::cli::parse_engine_config(flags, {}, kNodeFlagSet),
    };
    ddc::linalg::simd::configure(config.engine.simd);
    if (config.loss_prob < 0.0 || config.loss_prob > 1.0) {
      throw ddc::ConfigError("--loss-prob must be in [0, 1]");
    }

    // Same derivation sequence as ddcsim: inputs first, then the
    // topology, from one RNG seeded with --seed. Every process (and a
    // simulator run on the same flags) lands on the identical graph.
    ddc::stats::Rng rng(config.seed());
    const std::vector<Vector> inputs = make_inputs(config, rng);
    ddc::sim::Topology topology = config.engine.build_topology(rng);

    // ShardMap rejects --num-shards 0 and more shards than nodes; check
    // the layout (cheap contiguous map) before binding a socket.
    const auto num_shards = static_cast<ddc::shard::ShardId>(config.num_shards);
    (void)ddc::shard::ShardMap(config.nodes(), num_shards);
    if (config.shard_id >= config.num_shards) {
      throw ddc::ConfigError("--shard-id must be < --num-shards");
    }
    const auto shard_id = static_cast<ddc::shard::ShardId>(config.shard_id);

    ddc::net::UdpTransport transport = make_transport(config);
    ddc::shard::ShardEngineOptions pacing;
    pacing.max_exchange_polls = config.max_exchange_polls;
    pacing.partitioner = config.shard_map;
    pacing.idle = [&transport] {
      transport.maintain();
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    };
    if (config.protocol == "gm") {
      auto engine = ddc::shard::make_gm_shard_engine(
          std::move(topology), inputs, config.engine, shard_id, num_shards,
          &transport, pacing);
      return run(config, transport, engine,
                 [](const ddc::stats::Gaussian& g) { return g.mean(); });
    }
    if (config.protocol == "centroid") {
      auto engine = ddc::shard::make_centroid_shard_engine(
          std::move(topology), inputs, config.engine, shard_id, num_shards,
          &transport, pacing);
      return run(config, transport, engine,
                 [](const Vector& v) { return v; });
    }
    throw ddc::ConfigError("unknown protocol '" + config.protocol + "'");
  } catch (const ddc::Error& e) {
    std::cerr << "ddcnode: " << e.what() << '\n';
    return 1;
  }
}
