// Time-to-ε measuring program: runs one benchmark workload, on each of the graphs
// and input sets its seed names, from fresh inputs until every node
// agrees with node 0 to within ε. It repeats that for the time budget it
// is given, checks the outputs, and prints one JSON record.
//
//   ddc_tte --workload centroid-er-100k --seed 1 --seconds 40
//
// The same source builds two programs (CMakeLists.txt). ddc_tte times
// only the round calls. ddc_tte_traced additionally records spans
// (run → setup.* → round → shard.*) and reads per-layer counters at
// round boundaries, outside the timed interval; on the cluster workload
// it replaces ShardCluster::run_round() by an equivalent loop over the
// engines' public begin/poll/service calls so each exchange step can be
// timed. Only public entry points of the library are used.
#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include <ddc/cli/flags.hpp>
#include <ddc/common/error.hpp>
#include <ddc/gossip/runners.hpp>
#include <ddc/gossip/scale.hpp>
#include <ddc/linalg/simd.hpp>
#include <ddc/metrics/classification_metrics.hpp>
#include <ddc/metrics/streaming.hpp>
#include <ddc/shard/factories.hpp>
#include <ddc/stats/rng.hpp>
#include <ddc/wire/serialize.hpp>
#include <ddc/workload/scenarios.hpp>

#include "alloc_counter.hpp"

namespace {

constexpr bool kTraced = DDC_TTE_TRACED != 0;

using Clock = std::chrono::steady_clock;
using ddc::linalg::Vector;
using ddc::sim::Topology;

/// Agreement threshold on max classification distance to node 0.
constexpr double kEpsilon = 0.01;
/// A repetition that has not reached ε after this many rounds fails.
constexpr std::size_t kRoundCap = 400;
/// Largest accepted classification distance between node 0 at ε and
/// the inputs' two true clusters. The clusters' means are 25 apart, so
/// a classification that mixes them scores several units; a correct one
/// scores about the size of its quantization and sampling noise.
constexpr double kFinalErrorTolerance = 0.5;
constexpr std::size_t kMaxReps = 64;

struct Workload {
  const char* name;
  bool gm;       ///< GM (EM partition) protocol; else centroid
  bool cluster;  ///< ShardCluster over loopback; else SoA engine
  std::size_t nodes;
  double er_probability;
  std::size_t threads;
  ddc::shard::ShardId shards;
};

// Why each workload exists is recorded in README.md and BENCHMARK.json.
// The cluster's `threads` is each shard engine's worker count; one
// thread steps the shards (README.md says why it is not 1).
constexpr Workload kWorkloads[] = {
    {"centroid-er-100k", false, false, 100000, 1.6e-4, 4, 1},
    {"gm-er-30k", true, false, 30000, 5e-4, 4, 1},
    {"cluster-er-20k-x4", false, true, 20000, 8e-4, 4, 4},
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------
// Spans. Kept in memory (reserved up front so recording does not
// allocate inside a round) and written out once the run ends. In the
// untraced build every method is an empty inline function.

struct Span {
  std::uint32_t id;
  std::uint32_t parent;  ///< 0 = root
  std::uint32_t run;     ///< repetition id shared by all its spans
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
};

class Tracer {
 public:
  Tracer() {
    if constexpr (kTraced) spans_.reserve(1 << 16);
  }

  std::uint32_t open(const char* name, std::uint32_t parent,
                     std::uint32_t run, Clock::time_point start) {
    if constexpr (!kTraced) return 0;
    spans_.push_back({static_cast<std::uint32_t>(spans_.size() + 1), parent,
                      run, name, start, start});
    return spans_.back().id;
  }
  void close(std::uint32_t id, Clock::time_point end) {
    if constexpr (kTraced) spans_[id - 1].end = end;
  }
  void record(const char* name, std::uint32_t parent, std::uint32_t run,
              Clock::time_point start, Clock::time_point end) {
    close(open(name, parent, run, start), end);
  }

  void write(const std::string& path, Clock::time_point origin) const {
    std::ofstream out(path);
    if (!out) throw ddc::Error("cannot write spans to '" + path + "'");
    const auto ns = [origin](Clock::time_point t) {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
          .count();
    };
    for (const Span& s : spans_) {
      out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"run\":" << s.run << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << ns(s.start) << ",\"end_ns\":" << ns(s.end)
          << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// Per-layer counters, read at round boundaries in the traced build.

struct Counters {
  double cpu_s = 0.0;
  double prepare_s = 0.0;    ///< wall (SoA engine timings())
  double absorb_s = 0.0;     ///< wall (SoA engine timings())
  double partition_s = 0.0;  ///< summed over threads / nodes
  double em_s = 0.0;         ///< summed over threads / nodes
  std::uint64_t allocations = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t frames = 0;
  std::uint64_t records = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t polls_during_compute = 0;
  std::uint64_t bytes = 0;

  Counters& operator+=(const Counters& o) {
    cpu_s += o.cpu_s;
    prepare_s += o.prepare_s;
    absorb_s += o.absorb_s;
    partition_s += o.partition_s;
    em_s += o.em_s;
    allocations += o.allocations;
    alloc_bytes += o.alloc_bytes;
    frames += o.frames;
    records += o.records;
    retransmits += o.retransmits;
    polls_during_compute += o.polls_during_compute;
    bytes += o.bytes;
    return *this;
  }
  [[nodiscard]] Counters minus(const Counters& o) const {
    Counters d;
    d.cpu_s = cpu_s - o.cpu_s;
    d.prepare_s = prepare_s - o.prepare_s;
    d.absorb_s = absorb_s - o.absorb_s;
    d.partition_s = partition_s - o.partition_s;
    d.em_s = em_s - o.em_s;
    d.allocations = allocations - o.allocations;
    d.alloc_bytes = alloc_bytes - o.alloc_bytes;
    d.frames = frames - o.frames;
    d.records = records - o.records;
    d.retransmits = retransmits - o.retransmits;
    d.polls_during_compute = polls_during_compute - o.polls_during_compute;
    d.bytes = bytes - o.bytes;
    return d;
  }
};

/// Time the traced cluster loop spends in each exchange step.
struct ShardTimes {
  double begin_s = 0.0;
  double exchange_s = 0.0;
  double complete_s = 0.0;
  std::uint64_t polls = 0;  ///< unsuccessful try_complete_round() calls

  ShardTimes& operator+=(const ShardTimes& o) {
    begin_s += o.begin_s;
    exchange_s += o.exchange_s;
    complete_s += o.complete_s;
    polls += o.polls;
    return *this;
  }
};

/// Fills the process-wide fields (CPU time, allocations) of `c`.
void read_process(Counters& c) {
  c.cpu_s = cpu_seconds();
  if constexpr (kTraced) {
    const ddc_tte::AllocCounts a = ddc_tte::alloc_counts();
    c.allocations = a.allocations;
    c.alloc_bytes = a.bytes;
  }
}

// ---------------------------------------------------------------------
// The two engine shapes behind one interface: run a round, read the
// conservation total, test agreement, fetch node 0, read counters.

template <typename SP, typename Engine>
class SoaTarget {
 public:
  using Policy = SP;
  explicit SoaTarget(Engine engine) : engine_(std::move(engine)) {}

  void round(Tracer& /*tracer*/, std::uint32_t /*span*/,
             std::uint32_t /*run*/) {
    engine_.run_round();
  }
  [[nodiscard]] std::int64_t total_quanta() const {
    return engine_.total_quanta();
  }
  /// Max distance to node 0 ≤ ε. A cheap prefix scan settles the common
  /// "not yet" answer before the full streaming pass.
  [[nodiscard]] bool agreed() const {
    const auto reference = engine_.classification_of(0);
    const std::size_t prefix = std::min<std::size_t>(engine_.num_nodes(), 64);
    for (std::size_t i = 1; i < prefix; ++i) {
      if (ddc::metrics::classification_distance<SP>(
              reference, engine_.classification_of(i)) > kEpsilon) {
        return false;
      }
    }
    return ddc::metrics::streaming_max_disagreement<SP>(engine_) <= kEpsilon;
  }
  [[nodiscard]] auto node0() const { return engine_.classification_of(0); }
  /// Fills the engine fields of `c`.
  void read(Counters& c) const {
    c.prepare_s = engine_.timings().prepare_seconds;
    c.absorb_s = engine_.timings().absorb_seconds;
    c.partition_s = engine_.partition_seconds();
    c.em_s = engine_.em_seconds();
  }
  [[nodiscard]] const ShardTimes& shard_times() const { return shard_; }
  [[nodiscard]] std::size_t cut_edges() const { return 0; }

 private:
  Engine engine_;
  ShardTimes shard_;  // stays zero: no exchange layer
};

/// The sharded centroid cluster. ShardCluster is not movable, so it is
/// built in place from the factory.
class ClusterTarget {
 public:
  using Policy = ddc::summaries::CentroidPolicy;
  using Cluster = ddc::shard::CentroidShardCluster;
  ClusterTarget(Topology topology, const std::vector<Vector>& inputs,
                const ddc::sim::EngineConfig& config,
                ddc::shard::ShardId shards)
      : cluster_(ddc::shard::make_centroid_shard_cluster(std::move(topology),
                                                         inputs, config,
                                                         shards)),
        done_(cluster_.num_shards(), 0) {}

  /// Untraced: the library's own round. Traced: the same sequence of
  /// public calls as ShardCluster::run_round(), with each call timed.
  void round(Tracer& tracer, std::uint32_t span, std::uint32_t run) {
    if constexpr (!kTraced) {
      cluster_.run_round();
    } else {
      traced_round(tracer, span, run);
    }
  }
  [[nodiscard]] std::int64_t total_quanta() const {
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < n(); ++i) {
      acc += cluster_.node(i).classification().total_weight().quanta();
    }
    return acc;
  }
  [[nodiscard]] bool agreed() const {
    const auto& reference = cluster_.node(0).classification();
    for (std::size_t i = 1; i < n(); ++i) {
      if (ddc::metrics::classification_distance<Policy>(
              reference, cluster_.node(i).classification()) > kEpsilon) {
        return false;
      }
    }
    return true;
  }
  [[nodiscard]] auto node0() const { return cluster_.node(0).classification(); }
  /// Fills the engine, exchange and fabric fields of `c` (the centroid
  /// protocol has no EM stage, so em_s stays 0).
  void read(Counters& c) {
    for (std::size_t i = 0; i < n(); ++i) {
      c.partition_s +=
          cluster_.node(i).classifier().stats().partition_seconds;
    }
    const auto shards = static_cast<ddc::shard::ShardId>(cluster_.num_shards());
    for (ddc::shard::ShardId s = 0; s < shards; ++s) {
      const auto& stats = cluster_.engine(s).stats();
      c.frames += stats.batch_frames_sent;
      c.records += stats.batch_records_sent;
      c.retransmits += stats.retransmits;
      c.polls_during_compute += stats.polls_during_compute;
      const auto& endpoint = cluster_.network().endpoint(s);
      for (ddc::shard::ShardId p = 0; p < shards; ++p) {
        if (p != s) c.bytes += endpoint.stats(p).bytes_sent;
      }
    }
  }
  [[nodiscard]] const ShardTimes& shard_times() const { return shard_; }
  [[nodiscard]] std::size_t cut_edges() const {
    return cluster_.map().cut_edges(cluster_.engine(0).topology());
  }

 private:
  [[nodiscard]] std::size_t n() const {
    return cluster_.engine(0).topology().num_nodes();
  }

  void traced_round(Tracer& tracer, std::uint32_t span, std::uint32_t run) {
    const std::size_t shards = cluster_.num_shards();
    for (std::size_t s = 0; s < shards; ++s) {
      const auto t0 = Clock::now();
      cluster_.engine(static_cast<ddc::shard::ShardId>(s)).begin_round();
      const auto t1 = Clock::now();
      shard_.begin_s += seconds_between(t0, t1);
      tracer.record("shard.begin", span, run, t0, t1);
    }
    std::fill(done_.begin(), done_.end(), 0);
    std::size_t remaining = shards;
    while (remaining > 0) {
      auto t0 = Clock::now();
      cluster_.network().advance();
      auto t1 = Clock::now();
      shard_.exchange_s += seconds_between(t0, t1);
      tracer.record("shard.exchange", span, run, t0, t1);
      for (std::size_t s = 0; s < shards; ++s) {
        auto& engine = cluster_.engine(static_cast<ddc::shard::ShardId>(s));
        t0 = Clock::now();
        if (done_[s] != 0) {
          engine.service();
          t1 = Clock::now();
          shard_.exchange_s += seconds_between(t0, t1);
          tracer.record("shard.exchange", span, run, t0, t1);
        } else if (engine.try_complete_round()) {
          t1 = Clock::now();
          shard_.complete_s += seconds_between(t0, t1);
          tracer.record("shard.complete", span, run, t0, t1);
          done_[s] = 1;
          --remaining;
        } else {
          t1 = Clock::now();
          shard_.exchange_s += seconds_between(t0, t1);
          ++shard_.polls;
          tracer.record("shard.exchange", span, run, t0, t1);
        }
      }
    }
  }

  Cluster cluster_;
  std::vector<char> done_;  // reused: the traced loop allocates nothing
  ShardTimes shard_;
};

// ---------------------------------------------------------------------
// One repetition: set up from the seed, run to ε, check.

struct Rep {
  std::size_t instance = 0;
  double topology_s = 0.0;
  double inputs_s = 0.0;
  double engine_s = 0.0;
  std::vector<double> round_s;
  std::size_t rounds_to_eps = 0;  ///< 0 = cap reached
  bool quanta_ok = true;
  double final_error = 0.0;
  std::string digest;
  Counters layers;  ///< summed over this repetition's round calls
  ShardTimes shard;
  std::size_t cut_edges = 0;

  [[nodiscard]] double setup_s() const {
    return topology_s + inputs_s + engine_s;
  }
  [[nodiscard]] double time_to_eps_s() const {
    double acc = 0.0;
    for (const double s : round_s) acc += s;
    return acc;
  }
};

ddc::sim::EngineConfig engine_config(const Workload& w, std::size_t nodes,
                                     double er_probability,
                                     std::uint64_t seed) {
  ddc::sim::EngineConfig config;
  config.topology.family = ddc::sim::TopologyFamily::erdos_renyi;
  config.topology.nodes = nodes;
  config.topology.edge_probability = er_probability;
  config.pattern = ddc::sim::GossipPattern::push;
  config.parallelism = w.threads;
  config.protocol_seed = seed;  // ddcsim's convention: env = protocol + 1
  config.seed = seed + 1;
  config.validate();
  return config;
}

bool connected(const Topology& topology) {
  const std::size_t n = topology.num_nodes();
  std::vector<char> seen(n, 0);
  std::vector<ddc::sim::NodeId> stack{0};
  seen[0] = 1;
  std::size_t reached = 1;
  while (!stack.empty()) {
    const ddc::sim::NodeId i = stack.back();
    stack.pop_back();
    for (const ddc::sim::NodeId j : topology.neighbors(i)) {
      if (seen[j] == 0) {
        seen[j] = 1;
        ++reached;
        stack.push_back(j);
      }
    }
  }
  return reached == n;
}

/// The workload's graph is an Erdős–Rényi graph conditioned on being
/// connected (agreement is impossible otherwise): draws continue from
/// the same seeded stream until one is.
Topology connected_topology(const ddc::sim::EngineConfig& config,
                            ddc::stats::Rng& rng) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    Topology topology = config.build_topology(rng);
    if (connected(topology)) return topology;
  }
  throw ddc::ConfigError("no connected graph in 100 draws; raise the edge "
                         "probability");
}

/// Node 0's classification serialized exactly as on the wire, FNV-1a.
template <typename Summary>
std::string digest_of(const ddc::core::Classification<Summary>& c) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::byte b : ddc::wire::encode_classification(c)) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

/// The classification the inputs were drawn from: one collection per
/// true cluster (even / odd node ids, see two_clusters_inputs) holding
/// its share of the nodes and the summary of exactly its members.
template <typename SP>
ddc::core::Classification<typename SP::Summary> true_classification(
    const std::vector<Vector>& inputs) {
  ddc::core::Classification<typename SP::Summary> truth;
  for (std::size_t parity = 0; parity < 2; ++parity) {
    Vector members(inputs.size());
    std::int64_t count = 0;
    for (std::size_t i = parity; i < inputs.size(); i += 2) {
      members[i] = 1.0;
      ++count;
    }
    truth.add({SP::summarize_mixture(inputs, members),
               ddc::core::Weight::from_quanta(count), {}});
  }
  return truth;
}

template <typename Target, typename MakeTarget>
Rep run_rep(const ddc::sim::EngineConfig& config, std::uint64_t seed,
            Tracer& tracer, std::uint32_t run_id, MakeTarget make_target) {
  using SP = typename Target::Policy;
  Rep rep;
  const std::uint32_t run = tracer.open("run", 0, run_id, Clock::now());

  auto t0 = Clock::now();
  ddc::stats::Rng rng(seed);
  Topology topology = connected_topology(config, rng);
  auto t1 = Clock::now();
  const std::size_t n = topology.num_nodes();
  const std::vector<Vector> inputs = ddc::workload::two_clusters_inputs(n, rng);
  auto t2 = Clock::now();
  Target target = make_target(std::move(topology), inputs, config);
  auto t3 = Clock::now();
  rep.topology_s = seconds_between(t0, t1);
  rep.inputs_s = seconds_between(t1, t2);
  rep.engine_s = seconds_between(t2, t3);
  tracer.record("setup.topology", run, run_id, t0, t1);
  tracer.record("setup.inputs", run, run_id, t1, t2);
  tracer.record("setup.engine", run, run_id, t2, t3);

  const std::int64_t expected_quanta =
      static_cast<std::int64_t>(n) * config.quanta_per_unit;
  rep.round_s.reserve(kRoundCap);
  for (std::size_t r = 1; r <= kRoundCap; ++r) {
    // Process-wide counters are read next to the clock; the engine
    // counters (O(n) on the cluster) are read outside that window.
    Counters before;
    if constexpr (kTraced) {
      target.read(before);
      read_process(before);
    }
    const auto start = Clock::now();
    const std::uint32_t span = tracer.open("round", run, run_id, start);
    target.round(tracer, span, run_id);
    const auto end = Clock::now();
    tracer.close(span, end);
    rep.round_s.push_back(seconds_between(start, end));
    if constexpr (kTraced) {
      Counters after;
      read_process(after);
      target.read(after);
      rep.layers += after.minus(before);
    }

    if (target.total_quanta() != expected_quanta) rep.quanta_ok = false;
    if (target.agreed()) {
      rep.rounds_to_eps = r;
      break;
    }
  }
  const auto node0 = target.node0();
  rep.digest = digest_of(node0);
  rep.final_error = ddc::metrics::classification_distance<SP>(
      node0, true_classification<SP>(inputs));
  rep.shard = target.shard_times();
  rep.cut_edges = target.cut_edges();
  tracer.close(run, Clock::now());
  return rep;
}

/// Digest of node 0 after `rounds` rounds of the SoA centroid engine on
/// the workload's inputs — the monolithic reference for the cluster.
std::string soa_reference_digest(ddc::sim::EngineConfig config,
                                 std::uint64_t seed, std::size_t rounds) {
  config.parallelism = 1;
  ddc::stats::Rng rng(seed);
  Topology topology = connected_topology(config, rng);
  const auto inputs =
      ddc::workload::two_clusters_inputs(topology.num_nodes(), rng);
  auto engine = ddc::gossip::make_centroid_scale_engine(std::move(topology),
                                                        inputs, config);
  engine.run_rounds(rounds);
  return digest_of(engine.classification_of(0));
}

// ---------------------------------------------------------------------
// Aggregation and output.

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000U, nullptr) >= 0x80000004U) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002U + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    const auto last = s.find_last_not_of(' ');
    if (first != std::string::npos) return s.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

class Record {
 public:
  void field(const char* key, const std::string& raw_json) {
    fields_ += (fields_.empty() ? "" : ",") + json_string(key) + ":" + raw_json;
  }
  void text(const char* key, const std::string& value) {
    field(key, json_string(value));
  }
  void number(const char* key, double value) { field(key, format(value)); }
  void metric(const char* name, double value, const char* unit) {
    metrics_ += (metrics_.empty() ? "" : ",") + json_string(name) +
                ":{\"value\":" + format(value) +
                ",\"unit\":" + json_string(unit) + "}";
  }
  /// The plain fields as one JSON object (for nesting).
  [[nodiscard]] std::string object() const { return "{" + fields_ + "}"; }
  [[nodiscard]] std::string str() const {
    return "{" + fields_ + ",\"metrics\":{" + metrics_ + "}}";
  }

 private:
  static std::string format(double value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
  }
  std::string fields_;
  std::string metrics_;
};

template <typename Target, typename MakeTarget>
int run_workload(const Workload& w, std::size_t nodes, double er_probability,
                 std::uint64_t seed, std::size_t instances, double budget_s,
                 const std::string& spans_path, bool check_soa,
                 MakeTarget make_target) {
  const auto origin = Clock::now();
  // A seed names `instances` independent graphs and input sets. Rounds
  // to ε differ from graph to graph, so the median over several keeps
  // one unlucky draw from moving a run's numbers.
  std::vector<std::uint64_t> instance_seeds;
  std::vector<ddc::sim::EngineConfig> configs;
  for (std::size_t j = 0; j < instances; ++j) {
    instance_seeds.push_back(ddc::stats::derive_seed(seed, j));
    configs.push_back(
        engine_config(w, nodes, er_probability, instance_seeds.back()));
  }
  // Repetitions cycle through the instances until the budget would be
  // exceeded. Instance 0 always runs twice, so the repetition-to-
  // repetition determinism check always has a pair.
  Tracer tracer;
  std::vector<Rep> reps;
  double last_rep_s = 0.0;
  while (reps.size() <= instances ||
         (seconds_between(origin, Clock::now()) + last_rep_s <= budget_s &&
          reps.size() < kMaxReps)) {
    const std::size_t j = reps.size() % instances;
    const auto t0 = Clock::now();
    reps.push_back(run_rep<Target>(configs[j], instance_seeds[j], tracer,
                                   static_cast<std::uint32_t>(reps.size() + 1),
                                   make_target));
    reps.back().instance = j;
    last_rep_s = seconds_between(t0, Clock::now());
  }

  // Output checks: every repetition must reach ε, conserve quanta, land
  // near the true clusters and repeat its instance's first repetition.
  std::vector<std::string> reasons;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& rep = reps[i];
    const Rep& first = reps[rep.instance];
    const std::string tag = "rep " + std::to_string(i + 1) + " (instance " +
                            std::to_string(rep.instance) + "): ";
    const std::size_t before = reasons.size();
    if (rep.rounds_to_eps == 0) reasons.push_back(tag + "epsilon not reached");
    if (!rep.quanta_ok) reasons.push_back(tag + "total quanta != n * 2^20");
    if (rep.final_error > kFinalErrorTolerance) {
      reasons.push_back(tag + "final_error above tolerance");
    }
    if (rep.rounds_to_eps != first.rounds_to_eps || rep.digest != first.digest) {
      reasons.push_back(tag + "differs from the instance's first repetition");
    }
    if (reasons.size() > before) ++failed;
  }

  // Per instance: median time to ε over its repetitions, and likewise
  // the median of each repetition's median round time. The run reports
  // the median over instances of these and of rounds to ε. Medians keep
  // a repetition that a host slowdown hit, or one of the few graphs that
  // need far more rounds than the rest, from moving the run's numbers.
  std::vector<double> instance_tte;
  std::vector<double> instance_round_p50;
  std::vector<double> instance_rounds;
  double final_error = 0.0;
  for (std::size_t j = 0; j < instances; ++j) {
    std::vector<double> tte;
    std::vector<double> round_p50;
    for (std::size_t i = j; i < reps.size(); i += instances) {
      tte.push_back(reps[i].time_to_eps_s());
      round_p50.push_back(median(reps[i].round_s));
    }
    instance_tte.push_back(median(tte));
    instance_round_p50.push_back(median(round_p50));
    instance_rounds.push_back(static_cast<double>(reps[j].rounds_to_eps));
    final_error = std::max(final_error, reps[j].final_error);
  }
  const Rep& first = reps.front();
  std::vector<double> setup;
  std::vector<double> topology_s;
  std::vector<double> inputs_s;
  std::vector<double> engine_s;
  std::vector<double> rounds;
  Counters layers;
  ShardTimes shard;
  for (const Rep& rep : reps) {
    setup.push_back(rep.setup_s());
    topology_s.push_back(rep.topology_s);
    inputs_s.push_back(rep.inputs_s);
    engine_s.push_back(rep.engine_s);
    rounds.insert(rounds.end(), rep.round_s.begin(), rep.round_s.end());
    layers += rep.layers;
    shard += rep.shard;
  }
  std::sort(rounds.begin(), rounds.end());
  // Highest percentile with at least ten samples above it (nearest
  // rank R - 10 of R); the maximum when there are too few samples.
  const std::size_t samples = rounds.size();
  const std::size_t tail_rank = samples > 10 ? samples - 10 : samples;
  const double tail_percentile =
      100.0 * static_cast<double>(tail_rank) / static_cast<double>(samples);

  Record record;
  record.text("workload", w.name);
  record.field("seed", std::to_string(seed));
  record.number("nodes", static_cast<double>(nodes));
  record.number("instances", static_cast<double>(instances));
  record.number("traced", kTraced ? 1 : 0);
  record.number("attempted", static_cast<double>(reps.size()));
  record.number("failed", static_cast<double>(failed));
  std::string reason_list = "[";
  for (const auto& r : reasons) {
    reason_list += (reason_list.size() > 1 ? "," : "") + json_string(r);
  }
  record.field("fail_reasons", reason_list + "]");
  record.text("digest", first.digest);
  record.number("round_samples", static_cast<double>(samples));
  record.number("tail_percentile", tail_percentile);
  if (check_soa && w.cluster) {
    record.text("soa_digest", soa_reference_digest(
                                  configs[0], instance_seeds[0],
                                  first.rounds_to_eps));
  }
  Record host;
  host.number("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  host.text("cpu", cpu_model());
  host.text("simd", ddc::linalg::simd::tier_name(ddc::linalg::simd::dispatch()));
  host.text("compiler", compiler());
  host.text("build_type", DDC_TTE_BUILD_TYPE);
  host.number("threads", static_cast<double>(w.threads));
  host.number("shards", static_cast<double>(w.shards));
  record.field("host", host.object());

  record.metric("time_to_eps_s", median(instance_tte), "s");
  record.metric("round_ms_p50", 1e3 * median(instance_round_p50), "ms");
  record.metric("round_ms_tail", 1e3 * rounds[tail_rank - 1], "ms");
  record.metric("rounds_to_eps", median(instance_rounds), "rounds");
  record.metric("final_error", final_error, "dS");
  record.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  record.metric("setup_s", median(setup), "s");
  record.metric("setup.inputs_s", median(inputs_s), "s");
  record.metric("setup.topology_s", median(topology_s), "s");
  record.metric("setup.engine_s", median(engine_s), "s");

  if constexpr (kTraced) {
    const double per_round = 1.0 / static_cast<double>(samples);
    const auto per_round_count = [&](std::uint64_t count) {
      return static_cast<double>(count) / static_cast<double>(samples);
    };
    double wall_s = 0.0;
    for (const double s : rounds) wall_s += s;
    const double threads = static_cast<double>(w.threads);
    // sim.* and shard.* are wall-clock; partition.* and em.* are summed
    // over worker threads (SoA) or nodes (cluster), so at 4 threads they
    // can exceed the wall time of the phase that contains them.
    record.metric("sim.prepare_ms", 1e3 * layers.prepare_s * per_round, "ms");
    record.metric("sim.absorb_ms", 1e3 * layers.absorb_s * per_round, "ms");
    const double serial_s = w.cluster ? 0.0
                                      : wall_s - layers.prepare_s -
                                            layers.absorb_s;
    record.metric("sim.serial_ms", 1e3 * serial_s * per_round, "ms");
    record.metric("exec.cpu_util", layers.cpu_s / (wall_s * threads), "ratio");
    record.metric("sim.allocs_per_round", per_round_count(layers.allocations),
                  "count");
    record.metric("sim.alloc_mb_per_round",
                  per_round_count(layers.alloc_bytes) / (1024.0 * 1024.0),
                  "MiB");
    record.metric("partition.busy_ms", 1e3 * layers.partition_s * per_round,
                  "thread-ms");
    record.metric("em.busy_ms", 1e3 * layers.em_s * per_round, "thread-ms");
    record.metric("sim.absorb_overhead_share",
                  layers.absorb_s > 0.0
                      ? 1.0 - layers.partition_s / (layers.absorb_s * threads)
                      : 0.0,
                  "ratio");
    record.metric("shard.begin_ms", 1e3 * shard.begin_s * per_round, "ms");
    record.metric("shard.exchange_ms", 1e3 * shard.exchange_s * per_round,
                  "ms");
    record.metric("shard.complete_ms", 1e3 * shard.complete_s * per_round,
                  "ms");
    record.metric("shard.polls_per_round", per_round_count(shard.polls),
                  "count");
    record.metric("shard.frames_per_round", per_round_count(layers.frames),
                  "count");
    record.metric("shard.records_per_frame",
                  layers.frames > 0 ? static_cast<double>(layers.records) /
                                          static_cast<double>(layers.frames)
                                    : 0.0,
                  "count");
    record.metric("shard.retransmits", per_round_count(layers.retransmits),
                  "count");
    record.metric("shard.polls_during_compute",
                  per_round_count(layers.polls_during_compute), "count");
    record.metric("shard.cut_edges", static_cast<double>(first.cut_edges),
                  "count");
    record.metric("net.bytes_per_round", per_round_count(layers.bytes), "B");
    record.metric("net.bytes_per_record",
                  layers.records > 0 ? static_cast<double>(layers.bytes) /
                                           static_cast<double>(layers.records)
                                     : 0.0,
                  "B");
    if (!spans_path.empty()) tracer.write(spans_path, origin);
  }
  std::cout << record.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ddc::cli::Flags flags(kTraced ? "ddc_tte_traced" : "ddc_tte",
                        "time-to-epsilon benchmark program (one workload, "
                        "one JSON record)");
  flags.declare("workload", "centroid-er-100k | gm-er-30k | cluster-er-20k-x4",
                "");
  flags.declare("seed", "workload seed (inputs and topology)", "1");
  flags.declare("instances", "graphs and input sets derived from the seed",
                "5");
  flags.declare("seconds", "time budget; each instance runs at least once, instance 0 twice", "10");
  flags.declare("nodes",
                "override the node count (keeps the mean degree); 0 = "
                "the workload's own",
                "0");
  flags.declare("spans", "traced build: write spans to this JSONL file", "");
  flags.declare_bool("check-soa",
                     "also report the SoA centroid engine's node-0 digest "
                     "at the same round (cluster workload)");
  try {
    if (!flags.parse(argc, argv)) {
      std::cout << flags.help_text();
      return 0;
    }
    const std::string name = flags.get("workload");
    const Workload* w = nullptr;
    for (const Workload& candidate : kWorkloads) {
      if (name == candidate.name) w = &candidate;
    }
    if (w == nullptr) throw ddc::ConfigError("unknown workload '" + name + "'");
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    const double budget_s = flags.get_double("seconds");
    if (flags.get_int("instances") < 1 || flags.get_int("instances") > 16) {
      throw ddc::ConfigError("--instances must be in [1, 16]");
    }
    const auto instances = static_cast<std::size_t>(flags.get_int("instances"));
    std::size_t nodes = w->nodes;
    double p = w->er_probability;
    if (flags.get_int("nodes") > 0) {
      nodes = static_cast<std::size_t>(flags.get_int("nodes"));
      p = std::min(1.0, w->er_probability * static_cast<double>(w->nodes - 1) /
                            static_cast<double>(nodes - 1));
    }
    const std::string spans = flags.get("spans");
    const bool check_soa = flags.get_bool("check-soa");
    ddc::linalg::simd::configure(ddc::linalg::simd::Mode::auto_detect);

    using CentroidSP = ddc::summaries::CentroidPolicy;
    using GmSP = ddc::summaries::GaussianPolicy;
    if (w->cluster) {
      const ddc::shard::ShardId shards = w->shards;
      return run_workload<ClusterTarget>(
          *w, nodes, p, seed, instances, budget_s, spans, check_soa,
          [shards](Topology topology, const std::vector<Vector>& inputs,
                   const ddc::sim::EngineConfig& config) {
            return ClusterTarget(std::move(topology), inputs, config, shards);
          });
    }
    if (w->gm) {
      using Engine = decltype(ddc::gossip::make_gm_scale_engine(
          std::declval<Topology>(), std::declval<const std::vector<Vector>&>(),
          std::declval<const ddc::sim::EngineConfig&>()));
      return run_workload<SoaTarget<GmSP, Engine>>(
          *w, nodes, p, seed, instances, budget_s, spans, check_soa,
          [](Topology topology, const std::vector<Vector>& inputs,
             const ddc::sim::EngineConfig& config) {
            return SoaTarget<GmSP, Engine>(ddc::gossip::make_gm_scale_engine(
                std::move(topology), inputs, config));
          });
    }
    using Engine = decltype(ddc::gossip::make_centroid_scale_engine(
        std::declval<Topology>(), std::declval<const std::vector<Vector>&>(),
        std::declval<const ddc::sim::EngineConfig&>()));
    return run_workload<SoaTarget<CentroidSP, Engine>>(
        *w, nodes, p, seed, instances, budget_s, spans, check_soa,
        [](Topology topology, const std::vector<Vector>& inputs,
           const ddc::sim::EngineConfig& config) {
          return SoaTarget<CentroidSP, Engine>(
              ddc::gossip::make_centroid_scale_engine(std::move(topology),
                                                      inputs, config));
        });
  } catch (const ddc::Error& e) {
    std::cerr << (kTraced ? "ddc_tte_traced: " : "ddc_tte: ") << e.what()
              << '\n';
    return 1;
  }
}
