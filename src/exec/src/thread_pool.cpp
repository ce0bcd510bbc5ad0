#include <ddc/exec/thread_pool.hpp>

#include <algorithm>
#include <utility>

namespace ddc::exec {

// parallel_for submits at most one helper per worker per call, so four
// slots per worker leave room for several callers before the ring grows.
ThreadPool::ThreadPool(std::size_t num_threads)
    : ring_(std::max<std::size_t>(16, 4 * num_threads)) {
  workers_.reserve(num_threads);
  for (std::size_t t = 0; t < num_threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    for (std::function<void()>& task : ring_) task = nullptr;
    pending_ = 0;
  }
  ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (pending_ == ring_.size()) {
      // Full: unroll the ring into one twice as large, oldest first.
      std::vector<std::function<void()>> larger(2 * ring_.size());
      for (std::size_t k = 0; k < pending_; ++k) {
        larger[k] = std::move(ring_[(head_ + k) % ring_.size()]);
      }
      ring_ = std::move(larger);
      head_ = 0;
    }
    ring_[(head_ + pending_) % ring_.size()] = std::move(task);
    ++pending_;
  }
  ready_.notify_one();
}

std::size_t ThreadPool::hardware_threads() noexcept {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::unique_ptr<ThreadPool> make_lane_pool(std::size_t parallelism) {
  const std::size_t lanes =
      parallelism == 0 ? ThreadPool::hardware_threads() : parallelism;
  if (lanes <= 1) return nullptr;
  return std::make_unique<ThreadPool>(lanes - 1);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_.wait(lock, [this] { return stopping_ || pending_ > 0; });
      if (stopping_) return;
      task = std::move(ring_[head_]);
      head_ = (head_ + 1) % ring_.size();
      --pending_;
    }
    task();
  }
}

}  // namespace ddc::exec
