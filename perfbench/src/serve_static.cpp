// serve_static: the static backend over an immutable graph, fp32 rows,
// a device cache a quarter of the graph, SAGE 100 -> 256 -> 47 at
// fanouts 10,5.  Forward dominates service time here; the stream layers
// are idle and the gather is a few percent.
//
// Phases: warm-up; open-loop Poisson queries well below capacity
// (cpu_ms_per_op, CPU per query; per layer, serving.query_p50_ms); a
// saturating phase holding a fixed number of requests outstanding (per
// layer, serving.saturated_cpu_ms_per_query and serving.peak_rps); a
// sequential check phase (reference forward and block checks).
#include <memory>

#include "checks.hpp"
#include "core/hyscale.hpp"
#include "serving_common.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace hyscale;

namespace {

constexpr VertexId kVertices = 1 << 14;
constexpr std::int64_t kCacheRows = kVertices / 4;
constexpr int kSeedsPerRequest = 4;
constexpr double kRateQps = 250.0;
constexpr int kOutstanding = 64;
constexpr int kCheckRequests = 24;
constexpr int kCaptureEvery = 16;
const std::vector<int> kFanouts = {10, 5};

struct StaticSystem {
  std::unique_ptr<Telemetry> telemetry;
  std::unique_ptr<Dataset> dataset;
  std::unique_ptr<GnnModel> model;
  std::unique_ptr<ServingBackend> backend;
  std::unique_ptr<ProbeBackend> probe;
  std::unique_ptr<InferenceServer> server;

  void reset() {  // tear down in dependency order
    server.reset();
    probe.reset();
    backend.reset();
    model.reset();
    dataset.reset();
    telemetry.reset();
  }
};

void build(StaticSystem& sys, const Options& options) {
  sys.reset();
  if (options.trace) {
    TelemetryConfig config;
    config.trace_ring_capacity = 1 << 15;
    config.trace_max_threads = 16;
    sys.telemetry = std::make_unique<Telemetry>(config);
  }
  MaterializeOptions materialize;
  materialize.target_vertices = kVertices;
  materialize.seed = kGraphSeed;
  sys.dataset = std::make_unique<Dataset>(materialize_dataset("ogbn-products", materialize));

  ModelConfig model_config;
  model_config.kind = GnnKind::kSage;
  model_config.dims = {sys.dataset->info.f0, 256, sys.dataset->info.f2};
  model_config.seed = 1000 + options.seed;
  sys.model = std::make_unique<GnnModel>(model_config);

  ServingConfig serving;
  serving.fanouts = kFanouts;
  serving.num_workers = 2;
  serving.batch.max_batch_requests = 16;
  serving.batch.max_batch_seeds = 512;
  serving.batch.max_wait = 2e-4;  // well below one forward pass
  serving.batch.queue_capacity = 1024;
  serving.cache_capacity_rows = kCacheRows;
  serving.transfer_precision = TransferPrecision::kFp32;
  serving.seed = options.seed;
  serving.telemetry = sys.telemetry.get();
  sys.backend = make_static_backend(*sys.dataset, serving);
  sys.probe = std::make_unique<ProbeBackend>(*sys.backend, nullptr, options.trace, kCaptureEvery);
  sys.server = std::make_unique<InferenceServer>(*sys.probe, ModelSnapshot(*sys.model), serving);
}

}  // namespace

Result run_serve_static(const Options& options) {
  Result result;
  StaticSystem sys;
  const double setup_s = median_setup_seconds(5, [&] { build(sys, options); });
  const Dataset& ds = *sys.dataset;

  Rng rng(options.seed * 7919 + 17);
  const SeedSource seeds = [&] {
    std::vector<VertexId> request(kSeedsPerRequest);
    for (auto& v : request) v = static_cast<VertexId>(rng.below(ds.num_vertices()));
    return request;
  };

  // Warm-up: fills the worker scratch and the allocator's pools.
  const LoadPhase warm_up = run_open_loop(*sys.server, seeds, kRateQps, 0.5, rng);
  sys.probe->take_captures();
  sys.probe->take_log();

  const double open_s = options.seconds * 0.6;
  const double saturating_s = options.seconds * 0.4;
  const std::int64_t window_begin = StageTracer::now_ns();
  const LoadPhase open = run_open_loop(*sys.server, seeds, kRateQps, open_s, rng);
  const std::int64_t window_end = StageTracer::now_ns();
  const SessionLog open_log = sys.probe->take_log();
  // The saturating phase fills the tracer's rings many times over, so
  // the open loop's spans are read now.
  const auto open_records =
      options.trace ? sys.telemetry->tracer().collect() : std::vector<TraceRecord>{};
  const LoadPhase saturating = run_saturating(*sys.server, seeds, kOutstanding, saturating_s);

  result.attempted = warm_up.attempted + open.attempted + saturating.attempted;
  result.failed = warm_up.failed + open.failed + saturating.failed;

  const AdjacencyFn adjacency = [&](VertexId v, std::vector<VertexId>& out) {
    const auto n = ds.graph.neighbors(v);
    out.assign(n.begin(), n.end());
  };
  check_captured(sys.probe->take_captures(), kFanouts,
                 [&](const CapturedBatch&) { return adjacency; }, result);
  const auto layers = copy_sage_weights(*sys.model);
  const RowFn row = [&](VertexId v, std::vector<double>& out) {
    const auto r = ds.features.row(v);
    out.assign(r.begin(), r.end());
  };
  // fp32 rows: the served logits must equal the reference up to float
  // summation order.
  check_sequential(*sys.server, *sys.probe, seeds, kCheckRequests, kFanouts, adjacency, row,
                   layers, LogitTolerance{1e-4, 1e-4}, result);

  if (options.trace) {
    report_serving_layers(open, open_log, open_records, window_begin, window_end, result);
    result.set_layer("serving.batch_requests", mean_batch_requests(saturating), "requests");
    result.set_layer("serving.peak_rps", median(saturating.window_rps), "1/s");
  }
  result.set("setup_s", setup_s, "s");
  result.set("peak_rss_mb", peak_rss_mb(), "MB");
  result.set("cpu_ms_per_op", cpu_ms_per_query(open), "ms");
  result.set_layer("serving.process_cpu_ms_per_query", cpu_ms_per_query(open), "ms");
  result.set_layer("serving.worker_cpu_ms_per_query", worker_cpu_ms_per_query(open_log, open), "ms");
  result.set_layer("serving.saturated_cpu_ms_per_query", cpu_ms_per_query(saturating), "ms");
  sys.reset();
  return result;
}

}  // namespace perfbench
