#include "common/thread_pool.hpp"

#include <algorithm>

namespace hyscale {

ThreadPool::ThreadPool(std::size_t num_threads) {
  num_threads = std::max<std::size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t, std::size_t)>& body,
                              std::size_t chunks) {
  if (begin >= end) return;
  if (chunks == 0) chunks = size();
  const std::size_t n = end - begin;
  chunks = std::min(chunks, n);
  if (chunks <= 1) {
    body(begin, end);
    return;
  }
  // Counting latch: the calling thread blocks until all chunks finish.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t remaining = chunks;

  const std::size_t step = (n + chunks - 1) / chunks;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * step;
    const std::size_t hi = std::min(end, lo + step);
    if (lo >= hi) {
      std::lock_guard<std::mutex> lock(done_mutex);
      --remaining;
      continue;
    }
    submit([&, lo, hi] {
      body(lo, hi);
      // Signal while holding the latch mutex: the caller can only see
      // remaining == 0 after this unlock, so it cannot return and free
      // the stack-local done_cv while notify_one is still inside it.
      std::lock_guard<std::mutex> lock(done_mutex);
      --remaining;
      done_cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining == 0; });
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  return pool;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
    }
    cv_idle_.notify_all();
  }
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  ThreadPool::global().parallel_for(begin, end, body);
}

}  // namespace hyscale
