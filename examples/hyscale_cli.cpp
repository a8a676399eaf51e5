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
// Prints per-epoch reports (train), p50/p99 latency, QPS, batch-size
// and cache statistics (serve), plus ingest rate, publish lag and
// queue-wait/compute split (stream).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/strutil.hpp"
#include "core/hyscale.hpp"

using namespace hyscale;

namespace {

struct CliOptions {
  std::string dataset = "ogbn-products";
  std::string model = "sage";
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

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--dataset NAME] [--model gcn|sage|gat] [--platform gpu|fpga]\n"
      "          [--accels K] [--epochs N] [--fanouts a,b,...] [--scale V]\n"
      "          [--no-hybrid] [--no-drm] [--no-tfp] [--int8] [--trace FILE]\n",
      argv0);
}

bool parse_args(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--dataset") {
      const char* v = next();
      if (!v) return false;
      options.dataset = v;
    } else if (arg == "--model") {
      const char* v = next();
      if (!v) return false;
      options.model = v;
    } else if (arg == "--platform") {
      const char* v = next();
      if (!v) return false;
      options.platform = v;
    } else if (arg == "--accels") {
      const char* v = next();
      if (!v) return false;
      options.accels = std::atoi(v);
    } else if (arg == "--epochs") {
      const char* v = next();
      if (!v) return false;
      options.epochs = std::atoi(v);
    } else if (arg == "--scale") {
      const char* v = next();
      if (!v) return false;
      options.scale = std::atoll(v);
    } else if (arg == "--fanouts") {
      const char* v = next();
      if (!v) return false;
      options.fanouts.clear();
      for (const std::string& tok : split(v, ',')) {
        options.fanouts.push_back(std::atoi(tok.c_str()));
      }
    } else if (arg == "--no-hybrid") {
      options.hybrid = false;
    } else if (arg == "--no-drm") {
      options.drm = false;
    } else if (arg == "--no-tfp") {
      options.tfp = false;
    } else if (arg == "--int8") {
      options.int8 = true;
    } else if (arg == "--trace") {
      const char* v = next();
      if (!v) return false;
      options.trace_path = v;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------------- serve mode

struct ServeOptions {
  std::string dataset = "ogbn-products";
  std::string model = "sage";
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

void serve_usage(const char* argv0) {
  std::printf(
      "usage: %s serve [--dataset NAME] [--model gcn|sage|gat] [--scale V]\n"
      "          [--train-epochs N] [--checkpoint FILE] [--save-checkpoint FILE]\n"
      "          [--fanouts a,b,...|--full] [--workers K] [--cache-rows R]\n"
      "          [--precision fp32|int8] [--max-batch B] [--max-wait-ms MS] [--queue-cap Q]\n"
      "          [--clients C] [--requests N] [--seeds-per-request S] [--seed X]\n"
      "          [--metrics-out FILE|-] [--metrics-interval-ms MS] [--trace]\n"
      "          [--flight-record-out FILE|-]\n"
      "\n"
      "telemetry: --metrics-out dumps registry snapshots + lifecycle events as\n"
      "JSON lines (one final snapshot, or every --metrics-interval-ms; '-' =\n"
      "stderr); --trace also records per-request stage spans, summarized in the\n"
      "snapshot lines; --flight-record-out arms a liveness watchdog + flight\n"
      "recorder that dumps a post-mortem JSON bundle (metrics, journal tail,\n"
      "heartbeat ages, slowest-request traces) on a stall, an SLO breach, or\n"
      "teardown.\n",
      argv0);
}

// Probe an output path at parse time so a typo'd directory fails
// before minutes of load generation, not after.  "-" means stderr and
// the empty string means "unset"; both always pass.
bool probe_writable(const std::string& path, const char* flag) {
  if (path.empty() || path == "-") return true;
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: cannot open '%s' for writing\n", flag, path.c_str());
    return false;
  }
  std::fclose(f);
  return true;
}

bool parse_serve_args(int argc, char** argv, ServeOptions& options) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--dataset") {
      const char* v = next();
      if (!v) return false;
      options.dataset = v;
    } else if (arg == "--model") {
      const char* v = next();
      if (!v) return false;
      options.model = v;
    } else if (arg == "--scale") {
      const char* v = next();
      if (!v) return false;
      options.scale = std::atoll(v);
    } else if (arg == "--train-epochs") {
      const char* v = next();
      if (!v) return false;
      options.train_epochs = std::atoi(v);
    } else if (arg == "--checkpoint") {
      const char* v = next();
      if (!v) return false;
      options.checkpoint = v;
    } else if (arg == "--save-checkpoint") {
      const char* v = next();
      if (!v) return false;
      options.save_checkpoint = v;
    } else if (arg == "--fanouts") {
      const char* v = next();
      if (!v) return false;
      options.fanouts.clear();
      for (const std::string& tok : split(v, ',')) {
        options.fanouts.push_back(std::atoi(tok.c_str()));
      }
    } else if (arg == "--full") {
      options.fanouts.clear();
    } else if (arg == "--workers") {
      const char* v = next();
      if (!v) return false;
      options.workers = std::atoi(v);
    } else if (arg == "--cache-rows") {
      const char* v = next();
      if (!v) return false;
      options.cache_rows = std::atoll(v);
    } else if (arg == "--precision") {
      const char* v = next();
      if (!v) return false;
      if (std::string(v) == "fp32") {
        options.precision = TransferPrecision::kFp32;
      } else if (std::string(v) == "int8") {
        options.precision = TransferPrecision::kInt8;
      } else {
        std::fprintf(stderr, "--precision must be fp32 or int8 (got %s)\n", v);
        return false;
      }
    } else if (arg == "--max-batch") {
      const char* v = next();
      if (!v) return false;
      options.max_batch = std::atoll(v);
    } else if (arg == "--max-wait-ms") {
      const char* v = next();
      if (!v) return false;
      options.max_wait_ms = std::atof(v);
    } else if (arg == "--queue-cap") {
      const char* v = next();
      if (!v) return false;
      options.queue_cap = std::atoll(v);
    } else if (arg == "--clients") {
      const char* v = next();
      if (!v) return false;
      options.clients = std::atoi(v);
    } else if (arg == "--requests") {
      const char* v = next();
      if (!v) return false;
      options.requests = std::atoi(v);
    } else if (arg == "--seeds-per-request") {
      const char* v = next();
      if (!v) return false;
      options.seeds_per_request = std::atoi(v);
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return false;
      options.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (!v) return false;
      options.metrics_out = v;
      if (!probe_writable(options.metrics_out, "--metrics-out")) return false;
    } else if (arg == "--metrics-interval-ms") {
      const char* v = next();
      if (!v) return false;
      options.metrics_interval_ms = std::atoi(v);
      // 0 is only meaningful as the default (final dump only); an
      // EXPLICIT non-positive cadence is a mistake, not a request.
      if (options.metrics_interval_ms <= 0) {
        std::fprintf(stderr, "--metrics-interval-ms must be a positive cadence (got %s)\n", v);
        return false;
      }
    } else if (arg == "--flight-record-out") {
      const char* v = next();
      if (!v) return false;
      options.flight_record_out = v;
      if (!probe_writable(options.flight_record_out, "--flight-record-out")) return false;
    } else if (arg == "--trace") {
      options.stage_trace = true;
    } else if (arg == "--help" || arg == "-h") {
      serve_usage(argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
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

void stream_usage(const char* argv0) {
  std::printf(
      "usage: %s stream [--dataset NAME] [--model gcn|sage|gat] [--scale V]\n"
      "          [--train-epochs N] [--fanouts a,b,...|--full] [--workers K]\n"
      "          [--cache-rows R] [--precision fp32|int8] [--cache-rerank on|off]\n"
      "          [--clients C] [--requests N] [--seed X]\n"
      "          [--updates U] [--update-threads T] [--publish-every P]\n"
      "          [--vertex-add-frac F] [--feature-update-frac F]\n"
      "          [--delete-frac F] [--vertex-delete-frac F] [--delete-recent-frac F]\n"
      "          [--compact-edges E] [--compact-ratio R] [--no-annihilate]\n"
      "          [--slo-ms MS] [--ttl-ms MS] [--sweep-ms MS]\n"
      "          [--shards N] [--partitioner hash|bfs] [--rerank-rows R]\n"
      "          [--metrics-out FILE|-] [--metrics-interval-ms MS] [--trace]\n"
      "          [--flight-record-out FILE|-]\n"
      "\n"
      "lifecycle: --slo-ms bounds staleness (background publisher; 0 = caller-paced\n"
      "via --publish-every), --ttl-ms retires streamed-in entities idle that long\n"
      "(swept every --sweep-ms), --no-annihilate disables in-place tombstone GC.\n"
      "sharding: --shards N > 1 splits the evolving graph into N partition-routed\n"
      "shards (--partitioner picks the base assignment) with per-shard compaction\n"
      "and publishing; queries sample a consistent cross-shard cut, and --ttl-ms\n"
      "runs ONE facade-wide sweeper so shard vertex spaces stay in lockstep.\n"
      "--rerank-rows re-ranks the device cache every R gathered rows regardless\n"
      "of fold cadence.\n",
      argv0);
}

bool parse_stream_args(int argc, char** argv, StreamOptions& options) {
  // Reuse the serve parser for the shared flags by filtering out the
  // stream-only ones first.
  std::vector<char*> passthrough = {argv[0], argv[1]};
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--updates") {
      const char* v = next();
      if (!v) return false;
      options.updates = std::atoll(v);
    } else if (arg == "--update-threads") {
      const char* v = next();
      if (!v) return false;
      options.update_threads = std::atoi(v);
    } else if (arg == "--publish-every") {
      const char* v = next();
      if (!v) return false;
      options.publish_every = std::atoll(v);
    } else if (arg == "--vertex-add-frac") {
      const char* v = next();
      if (!v) return false;
      options.vertex_add_fraction = std::atof(v);
    } else if (arg == "--feature-update-frac") {
      const char* v = next();
      if (!v) return false;
      options.feature_update_fraction = std::atof(v);
    } else if (arg == "--delete-frac") {
      const char* v = next();
      if (!v) return false;
      options.edge_delete_fraction = std::atof(v);
    } else if (arg == "--vertex-delete-frac") {
      const char* v = next();
      if (!v) return false;
      options.vertex_delete_fraction = std::atof(v);
    } else if (arg == "--delete-recent-frac") {
      const char* v = next();
      if (!v) return false;
      options.delete_recent_fraction = std::atof(v);
    } else if (arg == "--compact-edges") {
      const char* v = next();
      if (!v) return false;
      options.compact_edges = std::atoll(v);
    } else if (arg == "--compact-ratio") {
      const char* v = next();
      if (!v) return false;
      options.compact_ratio = std::atof(v);
    } else if (arg == "--no-annihilate") {
      options.annihilate = false;
    } else if (arg == "--slo-ms") {
      const char* v = next();
      if (!v) return false;
      options.slo_ms = std::atof(v);
    } else if (arg == "--ttl-ms") {
      const char* v = next();
      if (!v) return false;
      options.ttl_ms = std::atof(v);
    } else if (arg == "--sweep-ms") {
      const char* v = next();
      if (!v) return false;
      options.sweep_ms = std::atof(v);
    } else if (arg == "--shards") {
      const char* v = next();
      if (!v) return false;
      options.shards = std::atoi(v);
    } else if (arg == "--partitioner") {
      const char* v = next();
      if (!v) return false;
      options.partitioner = v;
      if (options.partitioner != "hash" && options.partitioner != "bfs") {
        std::fprintf(stderr, "--partitioner must be hash or bfs (got %s)\n", v);
        return false;
      }
    } else if (arg == "--rerank-rows") {
      const char* v = next();
      if (!v) return false;
      options.rerank_rows = std::atoll(v);
    } else if (arg == "--cache-rerank") {
      const char* v = next();
      if (!v) return false;
      if (std::string(v) == "on") {
        options.cache_rerank = true;
      } else if (std::string(v) == "off") {
        options.cache_rerank = false;
      } else {
        std::fprintf(stderr, "--cache-rerank must be on or off (got %s)\n", v);
        return false;
      }
    } else if (arg == "--help" || arg == "-h") {
      stream_usage(argv[0]);
      std::exit(0);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  return parse_serve_args(static_cast<int>(passthrough.size()), passthrough.data(),
                          options.serve);
}

int run_stream_impl(const StreamOptions& options);

int run_stream(int argc, char** argv) {
  StreamOptions options;
  if (!parse_stream_args(argc, argv, options)) {
    stream_usage(argv[0]);
    return 2;
  }
  try {
    return run_stream_impl(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

int run_stream_impl(const StreamOptions& options) {
  const ServeOptions& serve = options.serve;
  MaterializeOptions materialize;
  materialize.target_vertices = serve.scale;
  Dataset dataset;
  try {
    dataset = materialize_dataset(serve.dataset, materialize);
  } catch (const std::out_of_range&) {
    std::fprintf(stderr, "unknown dataset '%s'\n", serve.dataset.c_str());
    return 2;
  }

  HybridTrainerConfig train_config;
  train_config.model_kind = parse_gnn_kind(serve.model);
  train_config.seed = serve.seed;
  HyScale system(dataset, cpu_fpga_platform(2), train_config);
  for (int e = 0; e < serve.train_epochs; ++e) {
    const EpochReport report = system.train_epoch();
    std::printf("train epoch %d: loss %.4f acc %.3f\n", e, report.loss, report.train_accuracy);
  }

  ServingConfig serving;
  serving.fanouts = serve.fanouts;
  serving.num_workers = serve.workers;
  serving.cache_capacity_rows = serve.cache_rows;
  serving.transfer_precision = serve.precision;
  serving.seed = serve.seed;
  serving.batch.max_batch_requests = serve.max_batch;
  serving.batch.max_wait = serve.max_wait_ms * 1e-3;
  serving.batch.queue_capacity = static_cast<std::size_t>(serve.queue_cap);
  serving.cache_rerank_every_rows = options.rerank_rows;

  CliTelemetry telemetry = make_telemetry(serve);
  serving.telemetry = telemetry.get();
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

  if (options.shards > 1) {
    ShardedConfig sharded;
    sharded.num_shards = options.shards;
    sharded.partitioner = options.partitioner == "bfs" ? ShardedConfig::Partitioner::kBfs
                                                       : ShardedConfig::Partitioner::kHash;
    sharded.stream = streaming;
    // One facade-wide TTL sweeper, paced through the ServingBackend
    // seam — retirement broadcasts to every shard so the vertex spaces
    // stay in lockstep.
    ServingSession session =
        system.stream_sharded(sharded, serving, compaction, publisher, {}, expiry);

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
    ShardedUpdateDriver update_driver(session.shards(), updates);
    UpdateReport update_report;
    std::thread update_thread([&] { update_report = update_driver.run(); });

    LoadGeneratorConfig load;
    load.num_clients = serve.clients;
    load.requests_per_client = serve.requests;
    load.seeds_per_request = serve.seeds_per_request;
    load.seed = serve.seed + 1;
    load.telemetry = telemetry.get();
    LoadGenerator generator(*session.server, dataset, load);
    const LoadReport report = generator.run();
    update_thread.join();
    if (telemetry.exporter) telemetry.exporter->flush("load_drained");

    const ShardedStats sharded_stats = session.shards().stats();
    const ServingSnapshot& stats = report.server;
    std::printf("\nqueries:  %s\n", report.to_string().c_str());
    std::printf("updates:  %s\n", update_report.to_string().c_str());
    std::printf("sharded:  %s\n", sharded_stats.to_string().c_str());
    std::printf("latency:  p50 %.3f ms  p99 %.3f ms  (queue p99 %.3f ms, compute mean "
                "%.3f ms)\n",
                stats.latency_p50 * 1e3, stats.latency_p99 * 1e3,
                stats.queue_wait_p99 * 1e3, stats.compute_mean * 1e3);
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
    print_telemetry_summary(telemetry, serve);
    return 0;
  }

  ServingSession session = system.stream(serving, streaming, compaction, publisher, expiry);

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
  UpdateGenerator update_generator(session.stream(), updates);
  UpdateReport update_report;
  std::thread update_thread([&] { update_report = update_generator.run(); });

  LoadGeneratorConfig load;
  load.num_clients = serve.clients;
  load.requests_per_client = serve.requests;
  load.seeds_per_request = serve.seeds_per_request;
  load.seed = serve.seed + 1;
  load.telemetry = telemetry.get();
  LoadGenerator generator(*session.server, dataset, load);
  const LoadReport report = generator.run();
  update_thread.join();
  if (telemetry.exporter) telemetry.exporter->flush("load_drained");

  const StreamStats stream_stats = session.stream().stats();
  const ServingSnapshot& stats = report.server;
  std::printf("\nqueries:  %s\n", report.to_string().c_str());
  std::printf("updates:  %s\n", update_report.to_string().c_str());
  std::printf("stream:   %s\n", stream_stats.to_string().c_str());
  std::printf("latency:  p50 %.3f ms  p99 %.3f ms  (queue p99 %.3f ms, compute mean %.3f ms)\n",
              stats.latency_p50 * 1e3, stats.latency_p99 * 1e3, stats.queue_wait_p99 * 1e3,
              stats.compute_mean * 1e3);
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
  print_telemetry_summary(telemetry, serve);
  return 0;
}

int run_serve_impl(const ServeOptions& options);

int run_serve(int argc, char** argv) {
  ServeOptions options;
  if (!parse_serve_args(argc, argv, options)) {
    serve_usage(argv[0]);
    return 2;
  }
  try {
    return run_serve_impl(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

int run_serve_impl(const ServeOptions& options) {
  // Static serving applies --precision to the device cache; fail before
  // training runs, not in the server constructor minutes later.
  if (options.precision != TransferPrecision::kFp32 && options.cache_rows <= 0) {
    std::fprintf(stderr, "--precision %s needs --cache-rows > 0 in serve mode\n",
                 transfer_precision_name(options.precision));
    return 2;
  }
  MaterializeOptions materialize;
  materialize.target_vertices = options.scale;
  Dataset dataset;
  try {
    dataset = materialize_dataset(options.dataset, materialize);
  } catch (const std::out_of_range&) {
    std::fprintf(stderr, "unknown dataset '%s'\n", options.dataset.c_str());
    return 2;
  }

  HybridTrainerConfig train_config;
  train_config.model_kind = parse_gnn_kind(options.model);
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

  ServingConfig serving;
  serving.fanouts = options.fanouts;
  serving.num_workers = options.workers;
  serving.cache_capacity_rows = options.cache_rows;
  serving.transfer_precision = options.precision;
  serving.seed = options.seed;
  serving.batch.max_batch_requests = options.max_batch;
  serving.batch.max_wait = options.max_wait_ms * 1e-3;
  serving.batch.queue_capacity = static_cast<std::size_t>(options.queue_cap);

  CliTelemetry telemetry = make_telemetry(options);
  serving.telemetry = telemetry.get();

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

  LoadGeneratorConfig load;
  load.num_clients = options.clients;
  load.requests_per_client = options.requests;
  load.seeds_per_request = options.seeds_per_request;
  load.seed = options.seed + 1;
  load.telemetry = telemetry.get();
  LoadGenerator generator(server, dataset, load);
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

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "serve") == 0) return run_serve(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "stream") == 0) return run_stream(argc, argv);
  CliOptions options;
  if (!parse_args(argc, argv, options)) {
    usage(argv[0]);
    return 2;
  }

  MaterializeOptions materialize;
  materialize.target_vertices = options.scale;
  Dataset dataset;
  try {
    dataset = materialize_dataset(options.dataset, materialize);
  } catch (const std::out_of_range&) {
    std::fprintf(stderr, "unknown dataset '%s'; known datasets:\n", options.dataset.c_str());
    for (const auto& info : paper_datasets()) std::fprintf(stderr, "  %s\n", info.name.c_str());
    return 2;
  }

  const PlatformSpec platform = options.platform == "gpu"
                                    ? cpu_gpu_platform(options.accels)
                                    : cpu_fpga_platform(options.accels);

  HybridTrainerConfig config;
  config.model_kind = parse_gnn_kind(options.model);
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
