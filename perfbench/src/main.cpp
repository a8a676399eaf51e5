// perfbench — runs one workload against the hyscale library's public
// API and prints its result as one JSON line:
//
//   perfbench --workload <serve_static|stream_churn_int8|train_hybrid>
//             --seed <n> --seconds <s> --trace <0|1> [--pool inline|global]
//   perfbench --selftest
//
// --trace 0 prints the end-to-end metrics; --trace 1 turns the
// library's stage tracer on, times the layers from outside, and prints
// the per-layer metrics (the end-to-end figures of the traced run go to
// stderr, for the tracing overhead).  Every workload prints every
// metric of the set it is asked for (kEndToEnd, kPerLayer below); a
// layer the workload does not run reads 0.  Failed output checks go to
// stderr and set "correct": false.
//
// --pool inline (the default) gives the library's global ThreadPool one
// worker, so ThreadPool::parallel_for runs every body on its caller and
// never reaches the latch fault README.md describes ("Known fault");
// --pool global keeps one worker per online CPU and reproduces it.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>

#include <execinfo.h>
#include <unistd.h>

#include "common.hpp"
#include "common/thread_pool.hpp"
#include "workloads.hpp"

namespace {

bool g_inline_pool = true;

}  // namespace

// The library sizes ThreadPool::global() from
// std::thread::hardware_concurrency(), which libstdc++ reads from
// glibc's get_nprocs().  This definition takes that symbol's place in
// the perfbench program, so the pool size follows --pool.
extern "C" int get_nprocs(void) {
  return g_inline_pool ? 1 : static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

namespace {

using perfbench::Metric;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metrics of BENCHMARK.json, in its order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"cpu_ms_per_op", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"serving.query_p50_ms", "ms"},
    {"serving.query_p99_ms", "ms"},
    {"serving.queue_wait_ms", "ms"},
    {"serving.batch_requests", "requests"},
    {"serving.peak_rps", "1/s"},
    {"serving.saturated_cpu_ms_per_query", "ms"},
    {"serving.process_cpu_ms_per_query", "ms"},
    {"serving.worker_cpu_ms_per_query", "ms"},
    {"load.lateness_ms", "ms"},
    {"backend.acquire_us", "us"},
    {"backend.release_us", "us"},
    {"sampling.sample_ms", "ms"},
    {"gather.ms", "ms"},
    {"gather.ns_per_row", "ns"},
    {"gather.hit_rate", "ratio"},
    {"nn.forward_ms", "ms"},
    {"nn.backward_ms", "ms"},
    {"stream.ingest_ops_per_s", "1/s"},
    {"stream.ingest_cpu_us_per_op", "us"},
    {"stream.write_peak_rss_mb", "MB"},
    {"stream.apply_us", "us"},
    {"stream.visible_ms", "ms"},
    {"stream.publish_ms", "ms"},
    {"stream.fold_build_ms", "ms"},
    {"stream.fold_locked_ms", "ms"},
    {"stream.folds", "count"},
    {"stream.annihilated_ops", "count"},
    {"stream.freshness_p50_ms", "ms"},
    {"stream.freshness_p99_ms", "ms"},
    {"runtime.allreduce_ms", "ms"},
    {"runtime.iteration_ms", "ms"},
    {"runtime.drm_moves", "count"},
    {"runtime.train_seeds_per_s", "1/s"},
    {"runtime.train_loss", "nats"},
};

/// Checks `got` against the metric set `specs`: an unknown name or a
/// wrong unit is an error; a missing name is an error unless
/// `missing_reads_zero` (a layer the workload does not run).
template <std::size_t N>
bool conform(std::map<std::string, Metric>& got, const MetricSpec (&specs)[N],
             bool missing_reads_zero, const char* kind) {
  bool ok = true;
  for (const auto& [name, metric] : got) {
    bool known = false;
    for (const auto& spec : specs) {
      if (name != spec.name) continue;
      known = true;
      if (metric.unit != spec.unit) {
        std::fprintf(stderr, "perfbench: %s metric %s in %s, expected %s\n", kind, name.c_str(),
                     metric.unit.c_str(), spec.unit);
        ok = false;
      }
    }
    if (!known) {
      std::fprintf(stderr, "perfbench: unknown %s metric %s\n", kind, name.c_str());
      ok = false;
    }
  }
  for (const auto& spec : specs) {
    if (got.count(spec.name)) continue;
    if (!missing_reads_zero) {
      std::fprintf(stderr, "perfbench: %s metric %s not measured\n", kind, spec.name);
      ok = false;
    }
    got[spec.name] = Metric{0.0, spec.unit};
  }
  return ok;
}

/// On a fatal signal, writes the faulting thread's return addresses to
/// stderr (resolve them with addr2line against the binary), then dies of
/// the same signal so the run guard still sees the crash.
void on_fatal_signal(int sig) {
  static const char header[] = "perfbench: fatal signal, backtrace:\n";
  [[maybe_unused]] auto n = write(STDERR_FILENO, header, sizeof(header) - 1);
  void* frames[64];
  backtrace_symbols_fd(frames, backtrace(frames, 64), STDERR_FILENO);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

std::string metrics_json(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.unit + "\"}";
    first = false;
  }
  return out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <serve_static|stream_churn_int8|train_hybrid> "
               "--seed <n> --seconds <s> --trace <0|1> [--pool inline|global]\n"
               "       perfbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) std::signal(sig, on_fatal_signal);
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return perfbench::run_selftest();
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage();
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0.0) || options.seconds > 600.0) return usage();
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) return usage();
      options.trace = value[0] == '1';
    } else if (arg == "--pool") {
      if (std::strcmp(value, "inline") != 0 && std::strcmp(value, "global") != 0) return usage();
      g_inline_pool = value[0] == 'i';
    } else {
      return usage();
    }
  }

  // The global pool is built on its first use, from get_nprocs() above.
  const std::size_t pool_size = hyscale::ThreadPool::global().size();
  if (g_inline_pool && pool_size != 1) {
    std::fprintf(stderr, "perfbench: --pool inline, but the global pool has %zu workers\n",
                 pool_size);
    return 1;
  }

  perfbench::Result result;
  try {
    if (options.workload == "serve_static") {
      result = perfbench::run_serve_static(options);
    } else if (options.workload == "stream_churn_int8") {
      result = perfbench::run_stream_churn_int8(options);
    } else if (options.workload == "train_hybrid") {
      result = perfbench::run_train_hybrid(options);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }

  for (const auto& line : result.errors) std::fprintf(stderr, "check failed: %s\n", line.c_str());
  if (!conform(result.metrics, kEndToEnd, false, "end-to-end") ||
      !conform(result.layers, kPerLayer, true, "per-layer")) {
    return 1;
  }
  if (options.trace) {
    std::fprintf(stderr, "end-to-end under tracing: %s\n", metrics_json(result.metrics).c_str());
  }
  const auto& shown = options.trace ? result.layers : result.metrics;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              result.correct ? "true" : "false", static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed), metrics_json(shown).c_str());
  std::fflush(stdout);
  // A global pool worker lost to the parallel_for fault (README, "Known
  // fault") makes the pool's destructor wait forever at exit; run.py
  // then counts the run as hung.
  return 0;
}
