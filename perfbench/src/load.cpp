#include "load.hpp"

#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <thread>

namespace perfbench {

using hyscale::InferenceResult;

namespace {

constexpr double kWindowS = 0.5;

struct Pending {
  Clock::time_point due;
  std::future<InferenceResult> future;
};

void record(LoadPhase& phase, const InferenceResult& result, Clock::time_point due,
            Clock::time_point observed) {
  ++phase.completed;
  phase.latency_ms.push_back(ms_between(due, observed));
  phase.queue_ms.push_back(result.queue_wait * 1e3);
  if (result.batch_requests > 0) phase.batches += 1.0 / static_cast<double>(result.batch_requests);
}

}  // namespace

LoadPhase run_open_loop(hyscale::InferenceServer& server, const SeedSource& seeds,
                        double rate_qps, double seconds, Rng& rng) {
  LoadPhase phase;
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Pending> queue;  // guarded by mutex
  bool submitting = true;     // guarded by mutex
  std::int64_t collect_failed = 0;

  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));

  std::thread collector([&] {
    for (;;) {
      Pending next;
      {
        std::unique_lock lock(mutex);
        cv.wait(lock, [&] { return !queue.empty() || !submitting; });
        if (queue.empty()) return;
        next = std::move(queue.front());
        queue.pop_front();
      }
      try {
        const InferenceResult result = next.future.get();
        record(phase, result, next.due, Clock::now());
      } catch (const std::exception&) {
        ++collect_failed;
      }
    }
  });

  double offset_s = rng.exponential(1.0 / rate_qps);
  for (;;) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(offset_s));
    if (due >= end) break;
    std::vector<hyscale::VertexId> request = seeds();
    std::this_thread::sleep_until(due);
    const auto submit = Clock::now();
    phase.lateness_ms.push_back(ms_between(due, submit));
    ++phase.attempted;
    auto future = server.try_submit(std::move(request));
    if (!future) {
      ++phase.failed;
    } else {
      std::lock_guard lock(mutex);
      queue.push_back(Pending{due, std::move(*future)});
      cv.notify_one();
    }
    offset_s += rng.exponential(1.0 / rate_qps);
  }
  {
    std::lock_guard lock(mutex);
    submitting = false;
  }
  cv.notify_one();
  collector.join();
  phase.failed += collect_failed;
  phase.cpu_s = process_cpu_seconds() - cpu0;
  return phase;
}

LoadPhase run_saturating(hyscale::InferenceServer& server, const SeedSource& seeds,
                         int outstanding, double seconds) {
  LoadPhase phase;
  std::deque<Pending> inflight;
  std::vector<std::int64_t> window_counts;
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  auto submit = [&] {
    ++phase.attempted;
    const auto now = Clock::now();
    auto future = server.try_submit(seeds());
    if (!future) {
      ++phase.failed;
      return;
    }
    inflight.push_back(Pending{now, std::move(*future)});
  };
  for (int i = 0; i < outstanding; ++i) submit();
  while (!inflight.empty()) {
    Pending next = std::move(inflight.front());
    inflight.pop_front();
    try {
      const InferenceResult result = next.future.get();
      const auto observed = Clock::now();
      record(phase, result, next.due, observed);
      if (observed <= end) {
        const auto w = static_cast<std::size_t>(
            std::chrono::duration<double>(observed - start).count() / kWindowS);
        if (window_counts.size() <= w) window_counts.resize(w + 1, 0);
        ++window_counts[w];
      }
      if (observed < end) submit();
    } catch (const std::exception&) {
      ++phase.failed;
    }
  }
  phase.cpu_s = process_cpu_seconds() - cpu0;
  // Whole windows only: the last one is cut short by the phase end.
  const auto whole = static_cast<std::size_t>(seconds / kWindowS);
  for (std::size_t w = 0; w < whole && w < window_counts.size(); ++w)
    phase.window_rps.push_back(static_cast<double>(window_counts[w]) / kWindowS);
  return phase;
}

}  // namespace perfbench
