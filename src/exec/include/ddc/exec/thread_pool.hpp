// A small fixed-size worker pool for the simulation engines.
//
// The simulator's parallelism is deliberately simple: per-round node work
// (prepare/absorb) and across-replicate bench runs are embarrassingly
// parallel, so all we need is a queue of tasks drained by a fixed set of
// workers. No work stealing, no futures, no external dependencies — the
// determinism story lives one level up, in parallel_for's stable chunking
// and in the runners' phase split (see DESIGN.md).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ddc::exec {

/// Fixed set of worker threads draining a FIFO task queue. A pool with
/// zero workers is valid and simply never runs anything — callers that
/// also execute tasks themselves (parallel_for does) degrade to serial
/// execution.
///
/// The queue is a ring of task slots sized in the constructor, and
/// parallel_for's helper tasks fit std::function's inline buffer, so a
/// parallel_for call allocates nothing. The ring doubles only when more
/// tasks are pending than it holds.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 is allowed; see class comment).
  explicit ThreadPool(std::size_t num_threads);

  /// Blocks until queued tasks drain is NOT guaranteed — pending tasks
  /// that never started are discarded; tasks already running are joined.
  /// Callers that need completion must track it themselves (parallel_for
  /// does).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t num_threads() const noexcept {
    return workers_.size();
  }

  /// Enqueues a task. Tasks must not throw — wrap bodies that can (the
  /// pool has no channel to surface an exception; parallel_for captures
  /// them per-chunk instead). Allocates nothing unless the ring is full
  /// or `task` is too large for std::function's inline buffer.
  void submit(std::function<void()> task);

  /// std::thread::hardware_concurrency with a floor of 1.
  [[nodiscard]] static std::size_t hardware_threads() noexcept;

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable ready_;
  // FIFO ring: the pending tasks are ring_[(head_ + k) % ring_.size()]
  // for k < pending_.
  std::vector<std::function<void()>> ring_;
  std::size_t head_ = 0;
  std::size_t pending_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// The pool behind `parallelism` concurrent parallel_for lanes, with 0
/// meaning one lane per hardware thread. The calling thread participates
/// in parallel_for, so N lanes need N−1 workers, and a single lane needs
/// no pool at all: null, which parallel_for runs sequentially.
[[nodiscard]] std::unique_ptr<ThreadPool> make_lane_pool(
    std::size_t parallelism);

}  // namespace ddc::exec
