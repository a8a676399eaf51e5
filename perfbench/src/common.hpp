// Shared plumbing for the perfbench workloads: the benchmark's own
// seeded RNG, clocks, order statistics, process CPU/RSS readings and
// the result record every workload fills.
//
// The benchmark draws every input it generates from its own RNG (not
// the library's), so a change to the library's generators cannot move
// the workload.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <time.h>

namespace perfbench {

/// Seed of the materialised graph and its features.  The graph is each
/// workload's fixed input; --seed varies the query schedule, the update
/// feed, the model weights and the trainer's shuffles.
constexpr std::uint64_t kGraphSeed = 42;

/// Seeded 64-bit generator with the few draws the workloads need.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}
  std::uint64_t next() { return engine_(); }
  /// Uniform in [0, n).
  std::int64_t below(std::int64_t n) {
    return static_cast<std::int64_t>(engine_() % static_cast<std::uint64_t>(n));
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(engine_() >> 11) * 0x1.0p-53; }
  /// Exponential with the given mean (Poisson inter-arrival gaps).
  double exponential(double mean) { return -mean * std::log1p(-unit()); }
  /// Uniform in [-1, 1): feature values.
  float feature() { return static_cast<float>(2.0 * unit() - 1.0); }

 private:
  std::mt19937_64 engine_;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank quantile of `values` (copied; q in [0, 1]).  0 for an
/// empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

inline double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// User + system CPU seconds of the whole process so far.
inline double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

/// CPU seconds of the calling thread so far.
inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set of the process so far, in MB.
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports: operations attempted/failed, whether every
/// output check passed, and the end-to-end and per-layer metrics by
/// name.  A failed check adds a line to `errors` and clears `correct`.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;  ///< end to end
  std::map<std::string, Metric> layers;   ///< per layer (traced runs)
  std::vector<std::string> errors;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void set_layer(const std::string& name, double value, const std::string& unit) {
    layers[name] = Metric{value, unit};
  }
  void fail_check(const std::string& what) {
    correct = false;
    errors.push_back(what);
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Median of `repeats` timed calls of `build` (each rebuilds the
/// workload's inputs and system from scratch); the last built state is
/// kept by the caller through `build`'s side effects.
template <class Fn>
double median_setup_seconds(int repeats, Fn&& build) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    build();
    times.push_back(seconds_since(t0));
  }
  return median(times);
}

}  // namespace perfbench
