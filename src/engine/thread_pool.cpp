#include "engine/thread_pool.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/obs.hpp"
#include "support/check.hpp"
#include "support/env.hpp"

namespace mh::engine {

std::size_t default_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t resolve_threads(std::size_t threads) noexcept {
  return threads == 0 ? default_threads() : threads;
}

std::size_t threads_from_env(std::size_t fallback) {
  return env::size("MH_THREADS", fallback);
}

void print_thread_banner() {
  std::printf("engine: %zu thread(s) (MH_THREADS to override)\n\n",
              resolve_threads(threads_from_env()));
}

void for_each_index(std::size_t n, std::size_t threads,
                    const std::function<void(std::size_t)>& body) {
  const std::size_t resolved =
      std::min(resolve_threads(threads), std::max<std::size_t>(n, 1));
  if (resolved <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool pool(resolved);
  pool.for_each_chunk(n, body);
}

ThreadPool::ThreadPool(std::size_t threads) {
  MH_REQUIRE(threads >= 1);
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::for_each_chunk(std::size_t n_chunks,
                                const std::function<void(std::size_t)>& body) {
  if (n_chunks == 0) return;
  MH_OBS_COUNT("engine.pool.jobs", 1);
  MH_OBS_GAUGE_SET("engine.pool.queue_depth", n_chunks);
  MH_OBS_TIMER("engine.pool.job_ns");
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    body_ = &body;
    n_chunks_ = n_chunks;
    next_chunk_.store(0, std::memory_order_relaxed);
    active_workers_ = workers_.size();
    error_ = nullptr;
    ++epoch_;
  }
  wake_.notify_all();
  drain(/*stolen=*/false);  // the caller is a full participant
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [this] { return active_workers_ == 0; });
  body_ = nullptr;
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void ThreadPool::drain(bool stolen) {
  for (;;) {
    const std::size_t chunk = next_chunk_.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= n_chunks_) return;
    if (stolen) {
      MH_OBS_COUNT("engine.pool.chunks_stolen", 1);
    } else {
      MH_OBS_COUNT("engine.pool.chunks_inline", 1);
    }
    const std::uint64_t chunk_begin = obs::enabled() ? obs::now_ns() : 0;
    try {
      (*body_)(chunk);
    } catch (...) {
      record_error();
    }
    if (chunk_begin != 0) MH_OBS_HIST("engine.pool.chunk_ns", obs::now_ns() - chunk_begin);
  }
}

void ThreadPool::record_error() noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!error_) error_ = std::current_exception();
  // Abandon unclaimed chunks so everyone winds down promptly.
  next_chunk_.store(n_chunks_, std::memory_order_relaxed);
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    std::unique_lock<std::mutex> lock(mutex_);
    const std::uint64_t idle_begin = obs::enabled() ? obs::now_ns() : 0;
    wake_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
    if (idle_begin != 0) {
      MH_OBS_COUNT("engine.pool.wakeups", 1);
      MH_OBS_HIST("engine.pool.idle_ns", obs::now_ns() - idle_begin);
    }
    if (stop_) return;
    seen_epoch = epoch_;
    lock.unlock();
    drain(/*stolen=*/true);
    lock.lock();
    if (--active_workers_ == 0) done_.notify_one();
  }
}

}  // namespace mh::engine
