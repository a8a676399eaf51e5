// stream_churn_int8: the streaming backend with int8 wire rows, the SLO
// publisher and the annihilate-then-fold compactor on.  The same
// open-loop query schedule as serve_static runs beside a fixed-rate
// update feed; a write-only phase follows.  The int8 miss path,
// overlay sampling, publish and fold share the cores with queries.
//
// Phases: warm-up; mixed (queries + feed: cpu_ms_per_op, CPU per
// query; per layer, stream.freshness_p50_ms and serving.query_p50_ms);
// write-only (per layer, stream.ingest_cpu_us_per_op and
// stream.ingest_ops_per_s);
// final publish, then the shadow-edge-set check and a sequential check
// phase (reference forward within the int8 tolerance, blocks against
// the shadow).
#include <algorithm>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "checks.hpp"
#include "core/hyscale.hpp"
#include "feed.hpp"
#include "serving_common.hpp"
#include "stream/compactor.hpp"
#include "stream/publisher.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace hyscale;

namespace {

constexpr VertexId kVertices = 1 << 14;
constexpr std::int64_t kCacheRows = kVertices / 4;
constexpr int kSeedsPerRequest = 4;
constexpr double kRateQps = 250.0;
constexpr double kUpdateOpsPerS = 2000.0;
// Write-only ops per second of the run: a fixed count, so every run of a
// given length ingests the same ops whatever the writer's pace.
constexpr double kWriteOnlyOpsPerRunSecond = 7000.0;
constexpr int kCheckRequests = 24;
constexpr int kCaptureEvery = 16;
constexpr double kStalenessBudget = 5e-3;
constexpr EdgeId kFoldTriggerOps = 8192;
// The documented int8 logit tolerance (max |int8 - fp32| per logit, the
// bound BENCH_hotpath.json gates on).
constexpr double kInt8LogitTolerance = 0.05;
const std::vector<int> kFanouts = {10, 5};

struct StreamSystem {
  std::unique_ptr<Telemetry> telemetry;
  std::unique_ptr<Dataset> dataset;
  std::unique_ptr<GnnModel> model;
  std::unique_ptr<StreamingGraph> graph;
  std::unique_ptr<ServingBackend> backend;
  std::unique_ptr<ProbeBackend> probe;
  std::unique_ptr<InferenceServer> server;
  std::unique_ptr<Publisher> publisher;
  std::unique_ptr<Compactor> compactor;

  void reset() {  // queries first, then the lifecycle threads, then the graph
    server.reset();
    publisher.reset();
    compactor.reset();
    probe.reset();
    backend.reset();
    graph.reset();
    model.reset();
    dataset.reset();
    telemetry.reset();
  }
};

void build(StreamSystem& sys, const Options& options) {
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

  StreamingConfig stream_config;
  stream_config.telemetry = sys.telemetry.get();
  sys.graph = std::make_unique<StreamingGraph>(*sys.dataset, stream_config);

  ServingConfig serving;
  serving.fanouts = kFanouts;
  serving.num_workers = 2;
  serving.batch.max_batch_requests = 16;
  serving.batch.max_batch_seeds = 512;
  serving.batch.max_wait = 2e-4;
  serving.batch.queue_capacity = 1024;
  serving.cache_capacity_rows = kCacheRows;
  serving.transfer_precision = TransferPrecision::kInt8;
  serving.seed = options.seed;
  serving.telemetry = sys.telemetry.get();
  sys.backend = make_streaming_backend(*sys.graph, serving);
  sys.probe = std::make_unique<ProbeBackend>(*sys.backend, sys.graph.get(), options.trace,
                                             kCaptureEvery);
  sys.server = std::make_unique<InferenceServer>(*sys.probe, ModelSnapshot(*sys.model), serving);

  PublisherPolicy publish;
  publish.staleness_budget = kStalenessBudget;
  sys.publisher = std::make_unique<Publisher>(*sys.graph, publish);
  CompactionPolicy compact;
  compact.max_overlay_edges = kFoldTriggerOps;
  compact.annihilate_first = true;
  sys.compactor = std::make_unique<Compactor>(*sys.graph, compact);
}

/// Per probe: from acceptance to the end of the first publish or fold
/// rebase that began after it (the span that made it visible).
std::vector<double> visible_ms(const std::vector<FreshnessProbes::Probe>& probes,
                               const std::vector<TraceRecord>& records) {
  std::vector<TraceRecord> installs;
  for (const auto& r : records) {
    if (r.stage == TraceStage::kPublish || r.stage == TraceStage::kRebase) installs.push_back(r);
  }
  std::sort(installs.begin(), installs.end(),
            [](const TraceRecord& a, const TraceRecord& b) { return a.begin_ns < b.begin_ns; });
  std::vector<double> out;
  for (const auto& p : probes) {
    const auto it = std::lower_bound(
        installs.begin(), installs.end(), p.accepted_ns,
        [](const TraceRecord& r, std::int64_t t) { return r.begin_ns < t; });
    if (it == installs.end()) continue;
    // Several installs can begin after the op; the first to END wins.
    std::int64_t first_end = it->end_ns;
    for (auto j = it; j != installs.end() && j->begin_ns <= first_end; ++j)
      first_end = std::min(first_end, j->end_ns);
    out.push_back(static_cast<double>(first_end - p.accepted_ns) * 1e-6);
  }
  return out;
}

}  // namespace

Result run_stream_churn_int8(const Options& options) {
  Result result;
  StreamSystem sys;
  const double setup_s = median_setup_seconds(5, [&] { build(sys, options); });
  StreamingGraph& graph = *sys.graph;

  Rng rng(options.seed * 7919 + 17);
  const SeedSource seeds = [&] {
    const VertexId limit = sys.probe->query_limit();
    std::vector<VertexId> request(kSeedsPerRequest);
    for (auto& v : request) v = static_cast<VertexId>(rng.below(limit));
    return request;
  };
  UpdateFeed feed(graph, *sys.dataset, options.seed * 104729 + 3, options.trace);
  FreshnessProbes probes;
  sys.probe->set_observer(&probes);

  // Batches kept under churn: every sampled edge must exist in the very
  // snapshot the batch pinned, and every fanout bound must hold there.
  // They are checked on the worker as they are released: keeping them to
  // the end would keep their snapshots, and with them one retired base
  // per fold, alive for the whole run.
  std::mutex kept_mutex;
  std::vector<std::string> kept_problems;  // guarded by kept_mutex
  std::int64_t kept_checked = 0;           // guarded by kept_mutex
  const CaptureSink check_kept = [&](CapturedBatch&& kept) {
    if (!kept.version) return;  // a publish raced the acquire; nothing to hold it against
    std::vector<std::string> problems;
    check_blocks(kept.batch, kFanouts,
                 [&](VertexId v, std::vector<VertexId>& out) {
                   kept.version->append_neighbors(v, out);
                 },
                 "batch on snapshot " + std::to_string(kept.freshness), problems);
    std::lock_guard lock(kept_mutex);
    ++kept_checked;
    kept_problems.insert(kept_problems.end(), problems.begin(), problems.end());
  };
  sys.probe->set_capture_sink(&check_kept);

  const LoadPhase warm_up = run_open_loop(*sys.server, seeds, kRateQps, 0.5, rng);
  sys.probe->take_log();

  const double mixed_s = options.seconds * 0.65;
  const StreamStats before = graph.stats();
  const std::int64_t window_begin = StageTracer::now_ns();
  std::thread writer([&] { feed.run_fixed_rate(kUpdateOpsPerS, mixed_s, &probes); });
  const LoadPhase mixed = run_open_loop(*sys.server, seeds, kRateQps, mixed_s, rng);
  writer.join();
  const std::int64_t window_end = StageTracer::now_ns();
  const SessionLog mixed_log = sys.probe->take_log();
  sys.probe->set_capture_sink(nullptr);
  // The bounded peak RSS ends with the mixed phase.  In the write-only
  // phase the peak depends on where the writer's pace puts each fold, and
  // it is a per-layer figure.
  const double mixed_peak_rss_mb = peak_rss_mb();
  const StreamStats after_mixed = graph.stats();
  sys.probe->set_observer(nullptr);

  feed.clear_apply_times();
  // stream.ingest_cpu_us_per_op is the writer's CPU inside
  // StreamingGraph calls per accepted op, the feed's own bookkeeping
  // left out.
  const UpdateFeed::FlatOut ingest =
      feed.run_flat_out(static_cast<std::int64_t>(options.seconds * kWriteOnlyOpsPerRunSecond));
  graph.publish();

  result.attempted = warm_up.attempted + mixed.attempted + feed.attempted();
  result.failed = warm_up.failed + mixed.failed + feed.failed();

  {
    std::lock_guard lock(kept_mutex);
    for (const auto& p : kept_problems) result.fail_check(p);
    if (kept_checked == 0) result.fail_check("no batch kept under churn could be checked");
  }

  // The live graph must now hold exactly the feed's shadow edge set.
  {
    const auto current = graph.current();
    std::vector<std::string> problems;
    if (current->num_vertices() != feed.shadow_vertices()) {
      problems.push_back("shadow: graph has " + std::to_string(current->num_vertices()) +
                         " vertices, the feed made " + std::to_string(feed.shadow_vertices()));
    } else {
      check_shadow(
          feed.touched(), feed.shadow_adjacency(), feed.shadow_alive(),
          [&](VertexId v, std::vector<VertexId>& out) { current->append_neighbors(v, out); },
          [&](VertexId v) { return current->alive(v); }, problems);
    }
    for (const auto& p : problems) result.fail_check(p);
  }

  // Sequential check phase on the quiet graph: blocks against the
  // shadow adjacency, logits against the fp32 reference over the
  // shadow rows within the int8 tolerance.
  const AdjacencyFn shadow_adjacency = [&](VertexId v, std::vector<VertexId>& out) {
    const auto& a = feed.shadow_adjacency()[static_cast<std::size_t>(v)];
    out.assign(a.begin(), a.end());
  };
  const RowFn row = [&](VertexId v, std::vector<double>& out) { feed.row(v, out); };
  check_sequential(*sys.server, *sys.probe, seeds, kCheckRequests, kFanouts, shadow_adjacency,
                   row, copy_sage_weights(*sys.model),
                   LogitTolerance{kInt8LogitTolerance, 0.0}, result);

  // Freshness: from acceptance to the first completed batch holding the
  // op.  Probes accepted in the last 10% of the phase may not meet a
  // query before it ends, so they are left out.
  const auto all_probes = probes.probes();
  const std::int64_t cutoff_ns = window_begin + (window_end - window_begin) * 9 / 10;
  std::vector<double> freshness;
  std::vector<FreshnessProbes::Probe> counted;
  for (const auto& p : all_probes) {
    if (p.accepted_ns > cutoff_ns) continue;
    counted.push_back(p);
    if (p.done != Clock::time_point::max()) freshness.push_back(ms_between(p.accepted, p.done));
  }
  if (freshness.size() != counted.size()) {
    result.fail_check("freshness: " + std::to_string(counted.size() - freshness.size()) + " of " +
                      std::to_string(counted.size()) + " probe inserts never reached a query");
  }

  if (options.trace) {
    const auto records = sys.telemetry->tracer().collect();
    report_serving_layers(mixed, mixed_log, records, window_begin, window_end, result);
    result.set_layer("serving.batch_requests", mean_batch_requests(mixed), "requests");
    result.set_layer("stream.ingest_ops_per_s", ingest.ops_per_s, "1/s");
    result.set_layer("stream.apply_us", median(feed.apply_us()), "us");
    result.set_layer("stream.visible_ms", median(visible_ms(counted, records)), "ms");
    result.set_layer("stream.publish_ms",
                     median(span_ms(records, TraceStage::kPublish, window_begin, window_end)), "ms");
    const auto all_time = std::numeric_limits<std::int64_t>::max();
    result.set_layer("stream.fold_build_ms",
                     median(span_ms(records, TraceStage::kBuild, window_begin, all_time)), "ms");
    result.set_layer("stream.fold_locked_ms",
                     median(span_ms(records, TraceStage::kCut, window_begin, all_time)) +
                         median(span_ms(records, TraceStage::kRebase, window_begin, all_time)),
                     "ms");
    result.set_layer("stream.folds",
                     static_cast<double>(after_mixed.compactions - before.compactions), "count");
    result.set_layer("stream.annihilated_ops",
                     static_cast<double>(after_mixed.annihilated_ops - before.annihilated_ops),
                     "count");
    result.set_layer("stream.freshness_p99_ms", quantile(freshness, 0.99), "ms");
  }
  result.set("setup_s", setup_s, "s");
  result.set("peak_rss_mb", mixed_peak_rss_mb, "MB");
  result.set_layer("stream.write_peak_rss_mb", peak_rss_mb(), "MB");
  // Background publish and fold CPU rides on the host's scheduling (the
  // publisher adapts its polling to how late it wakes), so the bounded
  // figure is the serving workers' own CPU per query; process CPU per
  // query is a per-layer figure.
  result.set("cpu_ms_per_op", worker_cpu_ms_per_query(mixed_log, mixed), "ms");
  result.set_layer("serving.worker_cpu_ms_per_query", worker_cpu_ms_per_query(mixed_log, mixed),
                   "ms");
  result.set_layer("serving.process_cpu_ms_per_query", cpu_ms_per_query(mixed), "ms");
  result.set_layer("stream.freshness_p50_ms", median(freshness), "ms");
  result.set_layer("stream.ingest_cpu_us_per_op", ingest.library_cpu_us_per_op, "us");
  sys.reset();
  return result;
}

}  // namespace perfbench
