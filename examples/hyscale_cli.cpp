// hyscale_cli — command-line driver for the library, the binary a
// downstream user actually runs.
//
// Training (default mode):
//   $ ./example_hyscale_cli --dataset ogbn-products --model sage \
//        --platform fpga --accels 4 --epochs 3 --fanouts 25,10 \
//        [--no-hybrid] [--no-drm] [--no-tfp] [--int8] [--trace out.json]
//
// Online inference serving (train briefly or load a checkpoint, then
// run a closed-loop load-generator session against the server):
//   $ ./example_hyscale_cli serve --dataset ogbn-products --workers 4 \
//        --clients 8 --requests 64 --fanouts 10,5 --cache-rows 512 \
//        [--checkpoint ckpt.bin] [--save-checkpoint ckpt.bin]
//
// Live serving over an evolving graph (concurrent update stream with a
// configurable insert/delete/update mix + query load against the
// streaming subsystem; background annihilate-then-fold compaction, an
// SLO publisher bounding staleness, and optional TTL eviction):
//   $ ./example_hyscale_cli stream --dataset ogbn-products --workers 4 \
//        --clients 8 --requests 64 --updates 512 \
//        [--delete-frac 0.3] [--vertex-delete-frac 0.05] \
//        [--delete-recent-frac 0.7] [--update-threads 2] \
//        [--compact-edges N] [--compact-ratio R] [--no-annihilate] \
//        [--slo-ms 5] [--ttl-ms 50] [--sweep-ms 10] [--publish-every N]
//
// Each mode's flags are one table (stream's is serve's plus its own);
// one engine parses every table and prints its usage.  Every value is
// checked while parsing, before any dataset is built: a malformed,
// out-of-range or unknown value, an unknown flag or a missing value
// exits 2 with the flag named on stderr.  A failure while running
// exits 1.
//
// Prints per-epoch reports (train), p50/p99 latency, QPS, batch-size
// and cache statistics (serve), plus ingest rate, publish lag and
// queue-wait/compute split (stream).
#include <charconv>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/strutil.hpp"
#include "core/hyscale.hpp"

using namespace hyscale;

namespace {

// ------------------------------------------------------------- flag tables

/// One command-line flag.  `metavar` is what the usage line shows after
/// the name; a flag without one is a switch and takes no value.
/// `apply` stores a value and returns "" or, when it rejects the value,
/// what a valid one looks like.
struct Flag {
  std::string name;
  std::string metavar;
  std::function<std::string(std::string_view)> apply;
};

/// A mode's flag table, the paragraph its usage prints under the
/// synopsis, and the checks that span several flags (run after parsing,
/// "" = pass).
struct Mode {
  std::string command;  ///< "" for training, else "serve" or "stream"
  std::vector<Flag> flags;
  std::string about;
  std::function<std::string()> check = [] { return std::string(); };
};

template <typename T>
bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return !text.empty() && ec == std::errc() && ptr == end;
}

template <typename T>
std::string show(T value) {
  if constexpr (std::is_integral_v<T>) {
    return std::to_string(value);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", value);
    return buf;
  }
}

/// A whole-token number in [lo, hi] (or (lo, hi] when `lo_open`).
/// Doubles must be finite.
template <typename T>
Flag number(std::string name, std::string metavar, T& out, std::type_identity_t<T> lo,
            std::type_identity_t<T> hi = std::numeric_limits<T>::max(), bool lo_open = false) {
  std::string expect = std::is_integral_v<T> ? "an integer" : "a number";
  if (hi == std::numeric_limits<T>::max()) {
    if (lo != std::numeric_limits<T>::lowest()) expect += (lo_open ? " > " : " >= ") + show(lo);
  } else {
    expect += " in " + std::string(lo_open ? "(" : "[") + show(lo) + ", " + show(hi) + "]";
  }
  return {std::move(name), std::move(metavar),
          [&out, lo, hi, lo_open, expect](std::string_view value) {
            T parsed{};
            if (!parse_number(value, parsed) || !(lo_open ? parsed > lo : parsed >= lo) ||
                !(parsed <= hi)) {
              return expect;
            }
            out = parsed;
            return std::string();
          }};
}

Flag positive(std::string name, std::string metavar, double& out) {
  return number(std::move(name), std::move(metavar), out, 0.0,
                std::numeric_limits<double>::max(), /*lo_open=*/true);
}

Flag text(std::string name, std::string metavar, std::string& out) {
  return {std::move(name), std::move(metavar), [&out](std::string_view value) {
            out = value;
            return std::string();
          }};
}

Flag toggle(std::string name, bool& out, bool value) {
  return {std::move(name), "", [&out, value](std::string_view) {
            out = value;
            return std::string();
          }};
}

/// One of a fixed list of words, handed to `set`.
Flag choice(std::string name, const std::vector<std::string>& words,
            std::function<void(const std::string&)> set) {
  std::string metavar;
  for (const std::string& word : words) metavar += (metavar.empty() ? "" : "|") + word;
  return {std::move(name), metavar, [words, metavar, set](std::string_view value) {
            for (const std::string& word : words) {
              if (value == word) {
                set(word);
                return std::string();
              }
            }
            return "one of " + metavar;
          }};
}

Flag dataset_flag(std::string& out) {
  std::vector<std::string> names;
  for (const DatasetInfo& info : paper_datasets()) names.push_back(info.name);
  return choice("--dataset", names, [&out](const std::string& name) { out = name; });
}

Flag model_flag(GnnKind& out) {
  return {"--model", "gcn|sage|gat", [&out](std::string_view value) {
            try {
              out = parse_gnn_kind(std::string(value));
              return std::string();
            } catch (const std::invalid_argument&) {
              return std::string("one of gcn|sage|gat");
            }
          }};
}

Flag fanouts_flag(std::vector<int>& out) {
  return {"--fanouts", "a,b,...", [&out](std::string_view value) {
            std::vector<int> fanouts;
            for (const std::string& token : split(std::string(value), ',')) {
              int fanout = 0;
              if (!parse_number(token, fanout) || fanout < 1) {
                return std::string("comma-separated integers >= 1");
              }
              fanouts.push_back(fanout);
            }
            out = std::move(fanouts);
            return std::string();
          }};
}

/// An output path, probed at parse time so a typo'd directory fails
/// before minutes of load generation, not after.  "-" means stderr.
Flag output_flag(std::string name, std::string& out) {
  return {std::move(name), "FILE|-", [&out](std::string_view value) {
            const std::string path(value);
            if (path != "-") {
              std::FILE* f = std::fopen(path.c_str(), "a");
              if (f == nullptr) return std::string("a writable file or '-'");
              std::fclose(f);
            }
            out = path;
            return std::string();
          }};
}

void print_usage(std::FILE* to, const char* argv0, const Mode& mode) {
  std::string line = std::string("usage: ") + argv0 +
                     (mode.command.empty() ? "" : " " + mode.command);
  for (const Flag& flag : mode.flags) {
    const std::string entry =
        "[" + flag.name + (flag.metavar.empty() ? "" : " " + flag.metavar) + "]";
    if (line.back() == ']' && line.size() + 1 + entry.size() > 80) {
      std::fprintf(to, "%s\n", line.c_str());
      line = std::string(9, ' ');
    }
    line += " " + entry;
  }
  std::fprintf(to, "%s\n", line.c_str());
  if (!mode.about.empty()) std::fprintf(to, "\n%s", mode.about.c_str());
}

/// Applies argv[first..) to the mode's table, then its cross-flag
/// checks.  Returns "" or one error line naming the flag.  --help / -h
/// prints the usage and exits 0.
std::string parse_flags(int argc, char** argv, int first, const Mode& mode) {
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout, argv[0], mode);
      std::exit(0);
    }
    const Flag* flag = nullptr;
    for (const Flag& candidate : mode.flags) {
      if (arg == candidate.name) flag = &candidate;
    }
    if (flag == nullptr) return "unknown argument: " + std::string(arg);
    std::string_view value;
    if (!flag->metavar.empty()) {
      if (i + 1 >= argc) return "missing value for " + flag->name;
      value = argv[++i];
    }
    if (const std::string expect = flag->apply(value); !expect.empty()) {
      return flag->name + ": expected " + expect + " (got '" + std::string(value) + "')";
    }
  }
  return mode.check();
}

/// Parses and checks the command line, then runs the mode: a rejected
/// command line exits 2 before any dataset is built, a failure while
/// running exits 1.
int run_mode(int argc, char** argv, const Mode& mode, const std::function<int()>& run) {
  const std::string error = parse_flags(argc, argv, mode.command.empty() ? 1 : 2, mode);
  if (!error.empty()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    print_usage(stderr, argv[0], mode);
    return 2;
  }
  try {
    return run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

constexpr int kMaxThreads = 1024;  ///< cap on each per-flag thread count
constexpr int kMaxDevices = 64;    ///< cap on accelerators and shards
constexpr VertexId kMaxScale = VertexId{1} << 30;  ///< the RMAT generator's cap

Dataset materialize(const std::string& name, VertexId scale) {
  MaterializeOptions materialize;
  materialize.target_vertices = scale;
  return materialize_dataset(name, materialize);
}

// ------------------------------------------------------------- train mode

struct TrainOptions {
  std::string dataset = "ogbn-products";
  GnnKind model = GnnKind::kSage;
  std::string platform = "fpga";
  int accels = 4;
  int epochs = 2;
  std::vector<int> fanouts = {25, 10};
  bool hybrid = true;
  bool drm = true;
  bool tfp = true;
  bool int8 = false;
  std::string trace_path;
  VertexId scale = 1 << 11;
};

Mode train_mode(TrainOptions& o) {
  return {"",
          {dataset_flag(o.dataset), model_flag(o.model),
           choice("--platform", {"gpu", "fpga"}, [&o](const std::string& w) { o.platform = w; }),
           number("--accels", "K", o.accels, 1, kMaxDevices),
           number("--epochs", "N", o.epochs, 0),
           fanouts_flag(o.fanouts),
           number("--scale", "V", o.scale, 1, kMaxScale),
           toggle("--no-hybrid", o.hybrid, false),
           toggle("--no-drm", o.drm, false),
           toggle("--no-tfp", o.tfp, false),
           toggle("--int8", o.int8, true),
           text("--trace", "FILE", o.trace_path)},
          ""};
}

int run_train(const TrainOptions& options) {
  const Dataset dataset = materialize(options.dataset, options.scale);
  const PlatformSpec platform = options.platform == "gpu"
                                    ? cpu_gpu_platform(options.accels)
                                    : cpu_fpga_platform(options.accels);

  HybridTrainerConfig config;
  config.model_kind = options.model;
  config.fanouts = options.fanouts;
  config.hybrid = options.hybrid;
  config.drm = options.drm;
  config.pipeline = options.tfp ? PipelineMode::kTwoStagePrefetch
                                : PipelineMode::kSinglePrefetch;
  config.transfer_precision =
      options.int8 ? TransferPrecision::kInt8 : TransferPrecision::kFp32;
  config.trajectory_cap = options.trace_path.empty() ? 0 : 256;

  std::printf("dataset:  %s (paper scale: %llu vertices / %llu edges)\n",
              dataset.info.name.c_str(),
              static_cast<unsigned long long>(dataset.info.num_vertices),
              static_cast<unsigned long long>(dataset.info.num_edges));
  std::printf("platform: %s\n", platform.name.c_str());
  std::printf("model:    %s, fanouts", gnn_kind_name(config.model_kind));
  for (int f : config.fanouts) std::printf(" %d", f);
  std::printf(", hybrid=%d drm=%d tfp=%d wire=%s\n\n", config.hybrid, config.drm, options.tfp,
              transfer_precision_name(config.transfer_precision));

  HybridTrainer trainer(dataset, platform, config);
  std::printf("initial mapping: %s\n", trainer.workload().to_string().c_str());
  std::printf("predicted epoch: %.3f s\n\n", trainer.predicted_epoch_time());

  EpochReport last;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    last = trainer.train_epoch();
    std::printf("epoch %2d: %8.3f s  %7.0f MTEPS  loss %.4f  acc %.3f\n", epoch,
                last.epoch_time, last.mteps, last.loss, last.train_accuracy);
  }
  std::printf("\nfinal workload: %s\n", last.final_workload.to_string().c_str());
  std::printf("mean stage times: %s\n", last.mean_times.to_string().c_str());

  if (!options.trace_path.empty()) {
    write_chrome_trace(last, config.pipeline, options.trace_path);
    std::printf("pipeline trace written to %s (open in chrome://tracing)\n",
                options.trace_path.c_str());
  }
  return 0;
}

// ------------------------------------------------------------- serve mode

struct ServeOptions {
  std::string dataset = "ogbn-products";
  GnnKind model = GnnKind::kSage;
  VertexId scale = 1 << 11;
  int train_epochs = 1;
  std::string checkpoint;       ///< load instead of relying on training
  std::string save_checkpoint;  ///< write trained weights before serving
  std::vector<int> fanouts = {10, 5};  ///< empty via --full: exact inference
  int workers = 4;
  std::int64_t cache_rows = 512;
  /// Device-row wire precision for the feature cache (and, in stream
  /// mode, the mutable store's host rows): fp32 or int8.
  TransferPrecision precision = TransferPrecision::kFp32;
  std::int64_t max_batch = 16;
  double max_wait_ms = 2.0;
  std::int64_t queue_cap = 1024;
  int clients = 8;
  int requests = 64;
  int seeds_per_request = 4;
  std::uint64_t seed = 1;
  std::string metrics_out;      ///< JSON-lines telemetry dump; "-" = stderr
  int metrics_interval_ms = 0;  ///< periodic exporter cadence; 0 = final dump only
  bool stage_trace = false;     ///< per-request / lifecycle stage tracing
  std::string flight_record_out;  ///< post-mortem JSON bundle; "-" = stderr

  bool telemetry_enabled() const {
    return !metrics_out.empty() || stage_trace || !flight_record_out.empty();
  }
};

constexpr const char* kTelemetryAbout =
    "telemetry: --metrics-out dumps registry snapshots + lifecycle events as\n"
    "JSON lines (one final snapshot, or every --metrics-interval-ms; '-' =\n"
    "stderr); --trace also records per-request stage spans, summarized in the\n"
    "snapshot lines; --flight-record-out arms a liveness watchdog + flight\n"
    "recorder that dumps a post-mortem JSON bundle (metrics, journal tail,\n"
    "heartbeat ages, slowest-request traces) on a stall, an SLO breach, or\n"
    "teardown.\n";

std::vector<Flag> serve_flags(ServeOptions& o) {
  return {dataset_flag(o.dataset),
          model_flag(o.model),
          number("--scale", "V", o.scale, 1, kMaxScale),
          number("--train-epochs", "N", o.train_epochs, 0),
          text("--checkpoint", "FILE", o.checkpoint),
          text("--save-checkpoint", "FILE", o.save_checkpoint),
          fanouts_flag(o.fanouts),
          {"--full", "", [&o](std::string_view) {
             o.fanouts.clear();
             return std::string();
           }},
          number("--workers", "K", o.workers, 1, kMaxThreads),
          number("--cache-rows", "R", o.cache_rows, 0),
          choice("--precision", {"fp32", "int8"},
                 [&o](const std::string& w) {
                   o.precision = w == "int8" ? TransferPrecision::kInt8 : TransferPrecision::kFp32;
                 }),
          number("--max-batch", "B", o.max_batch, 1),
          number("--max-wait-ms", "MS", o.max_wait_ms, 0.0),
          number("--queue-cap", "Q", o.queue_cap, 1),
          number("--clients", "C", o.clients, 1, kMaxThreads),
          number("--requests", "N", o.requests, 1),
          number("--seeds-per-request", "S", o.seeds_per_request, 1),
          number("--seed", "X", o.seed, 0),
          output_flag("--metrics-out", o.metrics_out),
          // 0 is only meaningful as the default (final dump only); an
          // EXPLICIT non-positive cadence is a mistake, not a request.
          number("--metrics-interval-ms", "MS", o.metrics_interval_ms, 1),
          toggle("--trace", o.stage_trace, true),
          output_flag("--flight-record-out", o.flight_record_out)};
}

Mode serve_mode(ServeOptions& o) {
  // Static serving applies --precision to the device cache; fail before
  // training runs, not in the server constructor minutes later.
  return {"serve", serve_flags(o), kTelemetryAbout, [&o] {
            if (o.precision == TransferPrecision::kFp32 || o.cache_rows > 0) return std::string();
            return std::string("--precision int8 needs --cache-rows > 0 in serve mode");
          }};
}

ServingConfig serving_config(const ServeOptions& options, Telemetry* telemetry) {
  ServingConfig serving;
  serving.fanouts = options.fanouts;
  serving.num_workers = options.workers;
  serving.cache_capacity_rows = options.cache_rows;
  serving.transfer_precision = options.precision;
  serving.seed = options.seed;
  serving.batch.max_batch_requests = options.max_batch;
  serving.batch.max_wait = options.max_wait_ms * 1e-3;
  serving.batch.queue_capacity = static_cast<std::size_t>(options.queue_cap);
  serving.telemetry = telemetry;
  return serving;
}

LoadGeneratorConfig load_config(const ServeOptions& options, Telemetry* telemetry) {
  LoadGeneratorConfig load;
  load.num_clients = options.clients;
  load.requests_per_client = options.requests;
  load.seeds_per_request = options.seeds_per_request;
  load.seed = options.seed + 1;
  load.telemetry = telemetry;
  return load;
}

// Telemetry stack for a CLI session: registry (+ stage tracer when
// --trace), the JSON-lines exporter when --metrics-out is given, and
// a flight recorder + liveness watchdog when --flight-record-out is.
// Declaration order is teardown order reversed: the watchdog stops
// sweeping first (no trips into a dying recorder), the recorder then
// writes its teardown bundle, the exporter its final snapshot, and
// only then does the registry go away; component callback gauges
// freeze on detach, so a dump after session teardown still reads
// their last values.
struct CliTelemetry {
  std::unique_ptr<Telemetry> telemetry;
  std::unique_ptr<TelemetryExporter> exporter;
  std::unique_ptr<FlightRecorder> flight;
  std::unique_ptr<Watchdog> watchdog;

  Telemetry* get() const { return telemetry.get(); }
};

CliTelemetry make_telemetry(const ServeOptions& options) {
  CliTelemetry out;
  if (!options.telemetry_enabled()) return out;
  TelemetryConfig config;
  config.tracing = options.stage_trace;
  out.telemetry = std::make_unique<Telemetry>(config);
  if (!options.metrics_out.empty()) {
    ExporterConfig exporter;
    exporter.path = options.metrics_out == "-" ? "" : options.metrics_out;
    exporter.interval_ms = options.metrics_interval_ms;
    out.exporter = std::make_unique<TelemetryExporter>(*out.telemetry, exporter);
  }
  if (!options.flight_record_out.empty()) {
    FlightRecorderConfig flight;
    flight.path = options.flight_record_out;
    out.flight = std::make_unique<FlightRecorder>(*out.telemetry, flight);
    out.watchdog = std::make_unique<Watchdog>(*out.telemetry);
  }
  return out;
}

void print_telemetry_summary(const CliTelemetry& telemetry, const ServeOptions& options) {
  if (!telemetry.telemetry) return;
  std::printf("telemetry:");
  if (options.stage_trace) {
    const StageTracer& tracer = telemetry.telemetry->tracer();
    std::printf(" %lld stage spans recorded (%lld dropped),",
                static_cast<long long>(tracer.recorded()),
                static_cast<long long>(tracer.dropped()));
  }
  if (!options.metrics_out.empty()) {
    std::printf(" JSON lines -> %s",
                options.metrics_out == "-" ? "stderr" : options.metrics_out.c_str());
  } else {
    std::printf(" metrics in-process only (pass --metrics-out to export)");
  }
  if (telemetry.watchdog) {
    std::printf(", watchdog %lld stalls", static_cast<long long>(telemetry.watchdog->stalls()));
  }
  if (telemetry.flight) {
    std::printf(", flight record -> %s (%lld dumps so far + teardown)",
                options.flight_record_out == "-" ? "stderr" : options.flight_record_out.c_str(),
                static_cast<long long>(telemetry.flight->dumps()));
  }
  std::printf("\n");
}

int run_serve(const ServeOptions& options) {
  const Dataset dataset = materialize(options.dataset, options.scale);

  HybridTrainerConfig train_config;
  train_config.model_kind = options.model;
  train_config.seed = options.seed;
  HybridTrainer trainer(dataset, cpu_fpga_platform(2), train_config);
  if (!options.checkpoint.empty()) {
    load_checkpoint(trainer.model(), options.checkpoint);
    std::printf("weights:  loaded from %s\n", options.checkpoint.c_str());
  } else {
    for (int e = 0; e < options.train_epochs; ++e) {
      const EpochReport report = trainer.train_epoch();
      std::printf("train epoch %d: loss %.4f acc %.3f\n", e, report.loss,
                  report.train_accuracy);
    }
  }
  if (!options.save_checkpoint.empty()) {
    save_checkpoint(trainer.model(), options.save_checkpoint);
    std::printf("weights:  saved to %s\n", options.save_checkpoint.c_str());
  }

  CliTelemetry telemetry = make_telemetry(options);
  const ServingConfig serving = serving_config(options, telemetry.get());
  const ModelSnapshot snapshot(trainer.model());
  auto backend = make_static_backend(dataset, serving);
  InferenceServer server(*backend, snapshot, serving);

  std::printf("\nserving %s on %d workers (", dataset.info.name.c_str(), options.workers);
  if (serving.fanouts.empty()) {
    std::printf("full neighborhood");
  } else {
    std::printf("fanouts");
    for (int f : serving.fanouts) std::printf(" %d", f);
  }
  std::printf(", max_batch=%lld, max_wait=%.1fms, cache_rows=%lld, wire=%s)\n",
              static_cast<long long>(options.max_batch), options.max_wait_ms,
              static_cast<long long>(options.cache_rows),
              transfer_precision_name(options.precision));

  LoadGenerator generator(server, dataset, load_config(options, telemetry.get()));
  const LoadReport report = generator.run();
  if (telemetry.exporter) telemetry.exporter->flush("load_drained");

  std::printf("\n%s\n", report.to_string().c_str());
  const ServingSnapshot& stats = report.server;
  std::printf("latency:  p50 %.3f ms  p95 %.3f ms  p99 %.3f ms  max %.3f ms\n",
              stats.latency_p50 * 1e3, stats.latency_p95 * 1e3, stats.latency_p99 * 1e3,
              stats.latency_max * 1e3);
  std::printf("qps:      %.1f requests/s (%.1f seeds/s)\n", report.qps,
              report.qps * options.seeds_per_request);
  std::printf("batches:  %lld (mean %.2f requests, min %lld, max %lld)\n",
              static_cast<long long>(stats.completed_batches), stats.mean_batch_requests,
              static_cast<long long>(stats.min_batch_requests),
              static_cast<long long>(stats.max_batch_requests));
  std::printf("cache:    hit_rate %.3f (%s device, %s host)\n", stats.cache_hit_rate,
              format_bytes(stats.device_bytes).c_str(), format_bytes(stats.host_bytes).c_str());
  print_telemetry_summary(telemetry, options);
  return 0;
}

// ------------------------------------------------------------ stream mode

struct StreamOptions {
  ServeOptions serve;  ///< shared knobs (dataset, model, workers, batching…)
  std::int64_t updates = 512;
  int update_threads = 1;
  /// 0 (default): the SLO publisher paces visibility; > 0 restores the
  /// fixed every-N-ops cadence.
  std::int64_t publish_every = 0;
  double vertex_add_fraction = 0.05;
  double vertex_delete_fraction = 0.0;
  double feature_update_fraction = 0.10;
  double edge_delete_fraction = 0.0;
  double delete_recent_fraction = 0.0;
  EdgeId compact_edges = 1 << 15;
  double compact_ratio = 0.25;
  bool annihilate = true;    ///< in-place tombstone GC before full rebuilds
  double slo_ms = 5.0;       ///< staleness budget; <= 0 disables the publisher
  double ttl_ms = -1.0;      ///< idle budget for streamed-in entities; < 0 = no TTL
  double sweep_ms = 10.0;    ///< TTL sweep interval
  bool cache_rerank = true;  ///< hit-driven cache re-rank at each fold's REBASE
  int shards = 1;            ///< > 1 serves through the sharded stack
  std::string partitioner = "hash";  ///< base partition for the shards: hash | bfs
  std::int64_t rerank_rows = 0;      ///< traffic-triggered re-rank cadence (0 = fold-only)
};

Mode stream_mode(StreamOptions& o) {
  constexpr double kAny = std::numeric_limits<double>::lowest();
  std::vector<Flag> flags = serve_flags(o.serve);
  flags.insert(flags.end(),
               {number("--updates", "U", o.updates, 0),
                number("--update-threads", "T", o.update_threads, 1, kMaxThreads),
                number("--publish-every", "P", o.publish_every, 0),
                number("--vertex-add-frac", "F", o.vertex_add_fraction, 0.0, 1.0),
                number("--feature-update-frac", "F", o.feature_update_fraction, 0.0, 1.0),
                number("--delete-frac", "F", o.edge_delete_fraction, 0.0, 1.0),
                number("--vertex-delete-frac", "F", o.vertex_delete_fraction, 0.0, 1.0),
                number("--delete-recent-frac", "F", o.delete_recent_fraction, 0.0, 1.0),
                number("--compact-edges", "E", o.compact_edges, 1),
                positive("--compact-ratio", "R", o.compact_ratio),
                toggle("--no-annihilate", o.annihilate, false),
                number("--slo-ms", "MS", o.slo_ms, kAny),
                number("--ttl-ms", "MS", o.ttl_ms, kAny),
                positive("--sweep-ms", "MS", o.sweep_ms),
                choice("--cache-rerank", {"on", "off"},
                       [&o](const std::string& w) { o.cache_rerank = w == "on"; }),
                number("--shards", "N", o.shards, 1, kMaxDevices),
                choice("--partitioner", {"hash", "bfs"},
                       [&o](const std::string& w) { o.partitioner = w; }),
                number("--rerank-rows", "R", o.rerank_rows, 0)});
  return {"stream", std::move(flags),
          std::string(
              "lifecycle: --slo-ms bounds staleness (background publisher; 0 = caller-paced\n"
              "via --publish-every), --ttl-ms retires streamed-in entities idle that long\n"
              "(swept every --sweep-ms), --no-annihilate disables in-place tombstone GC.\n"
              "sharding: --shards N > 1 splits the evolving graph into N partition-routed\n"
              "shards (--partitioner picks the base assignment) with per-shard compaction\n"
              "and publishing; queries sample a consistent cross-shard cut, and --ttl-ms\n"
              "runs ONE facade-wide sweeper so shard vertex spaces stay in lockstep.\n"
              "--rerank-rows re-ranks the device cache every R gathered rows regardless\n"
              "of fold cadence.\n") +
              kTelemetryAbout,
          [&o] {
            const double sum = o.vertex_add_fraction + o.vertex_delete_fraction +
                               o.feature_update_fraction + o.edge_delete_fraction;
            if (sum <= 1.0) return std::string();
            return "--vertex-add-frac + --vertex-delete-frac + --feature-update-frac + "
                   "--delete-frac must sum to <= 1 (got " + show(sum) + ")";
          }};
}

int run_stream(const StreamOptions& options) {
  const ServeOptions& serve = options.serve;
  const bool sharded = options.shards > 1;
  const Dataset dataset = materialize(serve.dataset, serve.scale);

  HybridTrainerConfig train_config;
  train_config.model_kind = serve.model;
  train_config.seed = serve.seed;
  HyScale system(dataset, cpu_fpga_platform(2), train_config);
  for (int e = 0; e < serve.train_epochs; ++e) {
    const EpochReport report = system.train_epoch();
    std::printf("train epoch %d: loss %.4f acc %.3f\n", e, report.loss, report.train_accuracy);
  }

  CliTelemetry telemetry = make_telemetry(serve);
  ServingConfig serving = serving_config(serve, telemetry.get());
  serving.cache_rerank_every_rows = options.rerank_rows;
  StreamingConfig streaming;
  streaming.telemetry = telemetry.get();
  streaming.cache_rerank = options.cache_rerank;

  CompactionPolicy compaction;
  compaction.max_overlay_edges = options.compact_edges;
  compaction.max_overlay_ratio = options.compact_ratio;
  compaction.annihilate_first = options.annihilate;
  PublisherPolicy publisher;
  publisher.staleness_budget = options.slo_ms * 1e-3;  // <= 0 disables
  // A tiny --slo-ms (sub-poll-floor budgets are legitimate for breach
  // demos) must not trip the poll_floor <= budget precondition.
  if (publisher.staleness_budget > 0.0)
    publisher.poll_floor = std::min(publisher.poll_floor, publisher.staleness_budget / 2.0);
  ExpiryPolicy expiry;
  expiry.ttl = options.ttl_ms < 0.0 ? -1.0 : options.ttl_ms * 1e-3;
  expiry.sweep_interval = options.sweep_ms * 1e-3;

  ServingSession session;
  if (sharded) {
    ShardedConfig config;
    config.num_shards = options.shards;
    config.partitioner = options.partitioner == "bfs" ? ShardedConfig::Partitioner::kBfs
                                                      : ShardedConfig::Partitioner::kHash;
    config.stream = streaming;
    // One facade-wide TTL sweeper, paced through the ServingBackend
    // seam — retirement broadcasts to every shard so the vertex spaces
    // stay in lockstep.
    session = system.stream_sharded(config, serving, compaction, publisher, {}, expiry);
    const Partition& partition = session.shards().partition();
    std::printf("\nsharded streaming %s: %d shards (%s partition, imbalance %.3f, "
                "edge-cut %.1f%%), %d workers, wire=%s, rerank-rows=%lld\n",
                dataset.info.name.c_str(), options.shards, options.partitioner.c_str(),
                partition.imbalance(),
                partition.edge_cut_fraction(dataset.graph.num_edges()) * 100.0,
                serve.workers, transfer_precision_name(serve.precision),
                static_cast<long long>(options.rerank_rows));
    if (session.sweeper != nullptr) {
      std::printf("expiry:   ttl %.1f ms, sweep every %.1f ms (facade-wide)\n",
                  options.ttl_ms, options.sweep_ms);
    }
  } else {
    session = system.stream(serving, streaming, compaction, publisher, expiry);
    std::printf("\nstreaming %s on %d workers (%lld base edges, compact at %lld overlay "
                "edges or %.0f%%, wire=%s, rerank=%s)\n",
                dataset.info.name.c_str(), serve.workers,
                static_cast<long long>(dataset.graph.num_edges()),
                static_cast<long long>(options.compact_edges), options.compact_ratio * 100.0,
                transfer_precision_name(serve.precision),
                options.cache_rerank ? "on" : "off");
    if (session.publisher() != nullptr) {
      std::printf("publisher: staleness budget %.3f ms\n", options.slo_ms);
    } else if (options.publish_every > 0) {
      std::printf("publisher: off (fixed cadence, publish every %lld ops)\n",
                  static_cast<long long>(options.publish_every));
    } else {
      std::printf("publisher: off and no cadence — updates stay invisible until the "
                  "final publish (pass --slo-ms or --publish-every)\n");
    }
    if (session.sweeper != nullptr) {
      std::printf("expiry:    ttl %.1f ms, sweep every %.1f ms\n", options.ttl_ms,
                  options.sweep_ms);
    }
  }

  UpdateGeneratorConfig updates;
  updates.operations = options.updates;
  updates.num_threads = options.update_threads;
  updates.publish_every = options.publish_every;
  updates.vertex_add_fraction = options.vertex_add_fraction;
  updates.vertex_delete_fraction = options.vertex_delete_fraction;
  updates.feature_update_fraction = options.feature_update_fraction;
  updates.edge_delete_fraction = options.edge_delete_fraction;
  updates.delete_recent_fraction = options.delete_recent_fraction;
  updates.seed = serve.seed + 2;
  UpdateGenerator update_generator = sharded ? UpdateGenerator(session.shards(), updates)
                                             : UpdateGenerator(session.stream(), updates);
  UpdateReport update_report;
  std::thread update_thread([&] { update_report = update_generator.run(); });

  LoadGenerator generator(*session.server, dataset, load_config(serve, telemetry.get()));
  const LoadReport report = generator.run();
  update_thread.join();
  if (telemetry.exporter) telemetry.exporter->flush("load_drained");

  const ServingSnapshot& stats = report.server;
  std::printf("\nqueries:  %s\n", report.to_string().c_str());
  std::printf("updates:  %s\n", update_report.to_string().c_str());
  if (sharded) {
    std::printf("sharded:  %s\n", session.shards().stats().to_string().c_str());
  } else {
    std::printf("stream:   %s\n", session.stream().stats().to_string().c_str());
  }
  std::printf("latency:  p50 %.3f ms  p99 %.3f ms  (queue p99 %.3f ms, compute mean %.3f ms)\n",
              stats.latency_p50 * 1e3, stats.latency_p99 * 1e3, stats.queue_wait_p99 * 1e3,
              stats.compute_mean * 1e3);

  if (sharded) {
    for (std::size_t s = 0; s < session.publishers.size(); ++s) {
      std::printf("shard %zu:  %lld publishes (worst staleness %.3f ms)\n", s,
                  static_cast<long long>(session.publishers[s]->publishes()),
                  session.publishers[s]->worst_staleness() * 1e3);
    }
    std::printf("adopter:  %lld cut adoptions (cut %llu served)\n",
                static_cast<long long>(session.adopter->adoptions()),
                static_cast<unsigned long long>(session.server->last_served_version()));
    if (session.sweeper != nullptr) {
      std::printf("expiry:   %lld retired in %lld sweeps\n",
                  static_cast<long long>(session.sweeper->retired()),
                  static_cast<long long>(session.sweeper->sweeps()));
    }
    if (options.rerank_rows > 0) {
      std::printf("rerank:   %lld traffic-triggered re-ranks\n",
                  static_cast<long long>(session.server->traffic_reranks()));
    }
  } else {
    const StreamStats stream_stats = session.stream().stats();
    std::printf("graph:    %lld vertices (%lld dead, %lld recycled), version %llu, "
                "%lld compactions\n",
                static_cast<long long>(session.stream().num_vertices()),
                static_cast<long long>(stream_stats.dead_vertices),
                static_cast<long long>(stream_stats.recycled_vertices),
                static_cast<unsigned long long>(stream_stats.version_id),
                static_cast<long long>(stream_stats.compactions));
    std::printf("lifecycle: %lld ops annihilated in %lld passes, %lld expired",
                static_cast<long long>(stream_stats.annihilated_ops),
                static_cast<long long>(stream_stats.annihilations),
                static_cast<long long>(stream_stats.expired_vertices));
    if (session.publisher() != nullptr) {
      std::printf(", publisher %lld publishes (worst staleness %.3f ms)",
                  static_cast<long long>(session.publisher()->publishes()),
                  session.publisher()->worst_staleness() * 1e3);
    }
    std::printf("\n");
    if (serve.cache_rows > 0) {
      const StaticFeatureCache* cache = session.server->cache();
      std::printf("cache:    hit_rate %.3f  since_invalidate %.3f (%lld invalidations)\n",
                  cache->totals().hit_rate(), cache->since_invalidate().hit_rate(),
                  static_cast<long long>(cache->invalidations()));
    }
  }
  print_telemetry_summary(telemetry, serve);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view command = argc > 1 ? argv[1] : "";
  if (command == "serve") {
    ServeOptions options;
    return run_mode(argc, argv, serve_mode(options), [&] { return run_serve(options); });
  }
  if (command == "stream") {
    StreamOptions options;
    return run_mode(argc, argv, stream_mode(options), [&] { return run_stream(options); });
  }
  TrainOptions options;
  return run_mode(argc, argv, train_mode(options), [&] { return run_train(options); });
}
