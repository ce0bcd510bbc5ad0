// Allocation count of SoaRoundEngine rounds, measured exactly.
//
// This binary replaces every global operator new form with a counting
// one, so any heap allocation anywhere in a round — in any file, on any
// thread — is seen. (ddcverify's hot-path-alloc rule follows call graphs
// within one file only.) The contracts:
//
//   * a steady-state round of the SoA centroid engine at 1 thread
//     allocates nothing, for every pattern, with and without loss, at a
//     fixed dimension and at the dynamic-dimension fallback;
//   * so does one at 4 threads, at n = 2 000 and n = 20 000 and for
//     every pattern with and without loss: the pool queues its tasks in
//     a ring sized up front, and parallel_for's helper tasks fit
//     std::function's inline buffer, so dispatching the round's
//     parallel phases allocates nothing either;
//   * the GM engine's prepare phase (the packed split) allocates
//     nothing: with every message lost there is no receive, so a whole
//     round is plan, prepare and deliver.
#include <ddc/gossip/scale.hpp>
#include <ddc/stats/rng.hpp>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t alignment) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (alignment <= alignof(std::max_align_t)) return std::malloc(size);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded);
}

void* counted_alloc_or_throw(std::size_t size, std::size_t alignment) {
  void* p = counted_alloc(size, alignment);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc_or_throw(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc_or_throw(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_or_throw(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_or_throw(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ddc::sim {
namespace {

constexpr std::size_t kWarmupRounds = 3;
constexpr std::size_t kMeasuredRounds = 10;
constexpr double kMeanDegree = 16.0;  // the time-to-ε ER workloads' degree

/// Bimodal inputs in `dim` dimensions: coordinate 0 separates the modes.
std::vector<linalg::Vector> bimodal_inputs(std::size_t n, std::size_t dim,
                                           std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<linalg::Vector> inputs;
  inputs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    linalg::Vector v(dim);
    for (std::size_t c = 0; c < dim; ++c) v[c] = rng.normal(0.0, 1.0);
    if (i % 2 == 1) v[0] += 25.0;
    inputs.push_back(std::move(v));
  }
  return inputs;
}

Topology er_topology(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  return Topology::erdos_renyi(n, kMeanDegree / static_cast<double>(n), rng);
}

/// Allocations made by `measured` rounds after `warmup` rounds.
template <typename Engine>
std::uint64_t round_allocations(Engine& engine, std::size_t warmup,
                                std::size_t measured) {
  engine.run_rounds(warmup);
  const std::uint64_t before = g_allocations.load();
  engine.run_rounds(measured);
  return g_allocations.load() - before;
}

RoundRunnerOptions round_options(std::size_t threads, GossipPattern pattern,
                                 double loss) {
  RoundRunnerOptions options;
  options.seed = 7;
  options.parallelism = threads;
  options.pattern = pattern;
  options.message_loss_probability = loss;
  return options;
}

TEST(AllocFreeRound, CentroidSteadyStateRoundAllocatesNothing) {
  constexpr std::size_t kNodes = 2000;
  for (const std::size_t dim : {1, 5}) {
    for (const GossipPattern pattern :
         {GossipPattern::push, GossipPattern::pull, GossipPattern::push_pull}) {
      for (const double loss : {0.0, 0.1}) {
        gossip::NetworkConfig net;
        net.k = 2;
        auto engine = gossip::make_centroid_scale_engine(
            er_topology(kNodes, 3), bimodal_inputs(kNodes, dim, 5), net,
            round_options(1, pattern, loss));
        EXPECT_EQ(round_allocations(engine, kWarmupRounds, kMeasuredRounds),
                  0U)
            << "dim " << dim << " pattern " << static_cast<int>(pattern)
            << " loss " << loss;
      }
    }
  }
}

TEST(AllocFreeRound, CentroidThreadedAllocationsIndependentOfNodeCount) {
  std::vector<std::uint64_t> counts;
  for (const std::size_t nodes : {2000, 20000}) {
    gossip::NetworkConfig net;
    net.k = 2;
    auto engine = gossip::make_centroid_scale_engine(
        er_topology(nodes, 3), bimodal_inputs(nodes, 1, 5), net,
        round_options(4, GossipPattern::push, 0.0));
    counts.push_back(
        round_allocations(engine, kWarmupRounds, kMeasuredRounds));
  }
  EXPECT_EQ(counts[0], 0U);
  EXPECT_EQ(counts[1], 0U);
}

TEST(AllocFreeRound, CentroidThreadedRoundAllocatesNothingForEveryPattern) {
  constexpr std::size_t kNodes = 2000;
  // Each pattern plans its views its own way (push: outgoing is the
  // table; pull: outgoing sorted; push-pull: incoming sorted, outgoing
  // derived), and loss switches deliver from a parallel map to the
  // sequential loss draws.
  for (const GossipPattern pattern :
       {GossipPattern::push, GossipPattern::pull, GossipPattern::push_pull}) {
    for (const double loss : {0.0, 0.1}) {
      gossip::NetworkConfig net;
      net.k = 2;
      auto engine = gossip::make_centroid_scale_engine(
          er_topology(kNodes, 3), bimodal_inputs(kNodes, 1, 5), net,
          round_options(4, pattern, loss));
      EXPECT_EQ(round_allocations(engine, kWarmupRounds, kMeasuredRounds), 0U)
          << "pattern " << static_cast<int>(pattern) << " loss " << loss;
    }
  }
}

TEST(AllocFreeRound, GmPrepareAllocatesNothing) {
  constexpr std::size_t kNodes = 500;
  gossip::NetworkConfig net;
  net.k = 2;
  // Every message is lost, so no node receives: a round is plan,
  // prepare (the packed split) and deliver only.
  auto engine = gossip::make_gm_scale_engine(
      er_topology(kNodes, 3), bimodal_inputs(kNodes, 2, 5), net,
      round_options(1, GossipPattern::push_pull, 1.0));
  EXPECT_EQ(round_allocations(engine, kWarmupRounds, kMeasuredRounds), 0U);
}

}  // namespace
}  // namespace ddc::sim
