// In-process multi-threaded GNN inference server.
//
// Pipeline per micro-batch (one InferenceWorker, end to end):
//   coalesce requests -> acquire the backend's consistent snapshot ->
//   neighbor sampling at inference fanouts -> feature gather at wire
//   precision through the backend's cache -> forward pass on a
//   worker-local ModelSnapshot replica -> scatter logits back to the
//   requests -> release the snapshot.
//
// The server is MODE-BLIND: every mode-specific step above lives
// behind ServingBackend (serving/backend.hpp), and the one constructor
// serves over whichever backend you hand it — make_static_backend over
// the dataset CSR, make_streaming_backend over a StreamingGraph's
// latest published version, make_sharded_backend over a
// ShardedStreamingGraph's latest adopted cut.  Each worker holds ONE
// BackendSession; snapshot isolation per micro-batch (in-flight batches
// keep their version/cut until done) is the session's acquire/release
// contract.
//
// Accounting: every completion, rejection, batch and gather is recorded
// straight into the serving.* instruments of one MetricsRegistry —
// config.telemetry's when set, else one the server owns — and stats()
// reads its ServingSnapshot back from that registry, so the CLI, the
// JSONL exporter, the flight record and the bench records all report
// the same percentiles.  Servers sharing one Telemetry share these
// instruments: their stats() report the combined traffic.
//
// Live model hot-swap: swap_model() stages a new ModelSnapshot under an
// atomic model epoch; workers notice the epoch at the NEXT batch
// boundary and re-instantiate their replica, so a batch in flight
// finishes entirely on the weights it started with (no torn batches)
// and the very next batch that worker picks up serves the new epoch.
//
// Workers run as long-lived tasks on a dedicated ThreadPool
// (common/thread_pool.hpp).  The pool is deliberately NOT
// ThreadPool::global(): the forward pass's GEMM and the row gather
// parallelise over the global pool internally, and long-running loops
// parked there would starve those inner parallel_for calls.
//
// Determinism: with empty fanouts the exact (full-neighborhood)
// computation graph is used, so results are reproducible by
// construction.  With sampled fanouts, the sampler is reseeded per
// micro-batch from (config.seed, batch seed ids), so a given batch
// composition always yields the same logits regardless of which worker
// runs it or how many are configured.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "graph/datasets.hpp"
#include "obs/metrics.hpp"
#include "serving/backend.hpp"
#include "serving/batcher.hpp"
#include "serving/model_snapshot.hpp"

namespace hyscale {

/// Point-in-time view of a server's serving.* instruments with derived
/// metrics — what the CLI, the load generator and the serving bench
/// print.  Percentiles, means and maxima come from the registry's
/// latency/queue-wait histograms (MetricsSnapshot::percentile_ms), so
/// they are the numbers every registry export reports too.
struct ServingSnapshot {
  std::int64_t completed_requests = 0;
  std::int64_t rejected_requests = 0;  ///< backpressure: bounded queue was full
  std::int64_t completed_batches = 0;

  double qps = 0.0;               ///< completed requests / server uptime

  Seconds latency_mean = 0.0;     ///< enqueue -> result
  Seconds latency_p50 = 0.0;
  Seconds latency_p95 = 0.0;
  Seconds latency_p99 = 0.0;
  Seconds latency_max = 0.0;

  /// Queue wait (enqueue -> worker pickup) reported separately from
  /// compute (pickup -> result) so streaming-induced stalls — workers
  /// busy against a hot version, compaction pressure — are attributable
  /// to queuing rather than folded into one latency number.
  Seconds queue_wait_mean = 0.0;
  Seconds queue_wait_p50 = 0.0;
  Seconds queue_wait_p99 = 0.0;
  Seconds queue_wait_max = 0.0;
  Seconds compute_mean = 0.0;     ///< latency_mean - queue_wait_mean, per request

  double mean_batch_requests = 0.0;  ///< requests coalesced per micro-batch
  std::int64_t min_batch_requests = 0;
  std::int64_t max_batch_requests = 0;

  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  double cache_hit_rate = 0.0;
  double device_bytes = 0.0;
  double host_bytes = 0.0;

  std::string to_string() const;
};

class InferenceServer {
 public:
  /// Serves `snapshot` over `backend`; the snapshot is consumed at
  /// construction (per-worker replicas are stamped out immediately).
  /// `backend` must outlive the server and serve only this server; its
  /// cache.* gauges are bound to config.telemetry's registry (if set)
  /// and stay registered until the BACKEND dies.
  InferenceServer(ServingBackend& backend, const ModelSnapshot& snapshot,
                  ServingConfig config = {});
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Non-blocking submit.  Returns std::nullopt when the bounded queue
  /// is full (backpressure — counted in serving.requests_rejected).  Throws
  /// std::invalid_argument for empty seed lists or out-of-range ids.
  std::optional<std::future<InferenceResult>> try_submit(std::vector<VertexId> seeds);

  /// Blocking convenience: retries submission under backpressure, then
  /// waits for the result.
  InferenceResult infer(std::vector<VertexId> seeds);

  /// Live hot-swap: stages `snapshot` as the new serving weights and
  /// bumps the model epoch.  Safe under concurrent traffic — workers
  /// adopt the new weights at their next batch boundary; a batch in
  /// flight completes entirely on its old replica.  Returns the new
  /// epoch (journaled as a model_swap event and exported as the
  /// model.epoch gauge when telemetry is on).  Throws
  /// std::invalid_argument when the architecture (layer/class counts)
  /// does not match the serving model's.
  std::uint64_t swap_model(const ModelSnapshot& snapshot);
  /// Current model epoch (1 = the construction snapshot).
  std::uint64_t model_epoch() const { return model_epoch_.load(std::memory_order_acquire); }

  /// Reads the serving.* instruments back from the registry they are
  /// recorded in (see the accounting note above).
  ServingSnapshot stats() const;
  const StaticFeatureCache* cache() const { return backend_.cache(); }
  /// Shard `s`'s device cache (sharded mode with a cache configured;
  /// null otherwise).
  const StaticFeatureCache* shard_cache(int s) const { return backend_.shard_cache(s); }
  const ServingConfig& config() const { return config_; }
  int num_classes() const { return num_classes_; }
  const ServingBackend& backend() const { return backend_; }
  /// Traffic-triggered cache re-ranks this server has issued
  /// (cache_rerank_every_rows crossings; 0 when the cadence is off).
  std::int64_t traffic_reranks() const {
    return traffic_reranks_.load(std::memory_order_relaxed);
  }
  /// Id of the newest snapshot (GraphVersion / ShardedCut) any
  /// micro-batch has sampled (0 in static mode or before the first
  /// streaming batch) — how the SLO publisher's freshness actually
  /// reaches queries.
  std::uint64_t last_served_version() const {
    return last_served_version_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-worker state: everything GnnModel::forward / sampling mutates.
  struct Worker {
    std::unique_ptr<GnnModel> model;
    std::uint64_t model_epoch = 1;  ///< epoch `model` was instantiated at
    std::unique_ptr<BackendSession> session;
    Heartbeat* heart = nullptr;  ///< liveness stamp when telemetry on
    // Reusable batch scratch: coalesced seed ids, the gathered feature
    // block, and the gather hit bitmap live across batches so the hot
    // path stops paying a fresh allocation per micro-batch (the fused
    // sample->gather path consumes mb.input_nodes() in place).
    std::vector<VertexId> combined;
    Tensor x;
    std::vector<char> hit_scratch;
  };

  void init_workers(const ModelSnapshot& snapshot);
  void bind_metrics();
  void worker_loop(Worker& worker);
  void execute_batch(Worker& worker, std::vector<InferenceRequest>& batch);
  /// Batch-boundary hot-swap pickup: re-instantiates the worker's model
  /// replica when the server's epoch moved past the worker's.
  void refresh_worker_model(Worker& worker);
  /// Folds `gathered_rows` into the traffic-rerank cadence and issues a
  /// re-rank when a cache_rerank_every_rows boundary is crossed (one
  /// trigger per crossing, CAS-claimed so concurrent workers never
  /// stampede).
  void maybe_rerank(std::int64_t gathered_rows);

  ServingConfig config_;
  int num_classes_ = 0;
  int num_layers_ = 0;
  ServingBackend& backend_;

  DynamicBatcher batcher_;
  Timer uptime_;
  std::unique_ptr<MetricsRegistry> own_registry_;  ///< only when telemetry is off
  MetricsRegistry* registry_ = nullptr;            ///< own_registry_ or telemetry's
  // serving.* instruments on registry_; never null after construction.
  Counter* m_completed_ = nullptr;
  Counter* m_rejected_ = nullptr;
  Counter* m_batches_ = nullptr;
  Counter* m_seeds_ = nullptr;
  Counter* m_batch_requests_ = nullptr;
  Counter* m_cache_hits_ = nullptr;
  Counter* m_cache_misses_ = nullptr;
  Gauge* m_device_bytes_ = nullptr;
  Gauge* m_host_bytes_ = nullptr;
  Gauge* m_min_batch_ = nullptr;  ///< 0 until the first batch
  Gauge* m_max_batch_ = nullptr;
  Histogram* m_latency_ = nullptr;
  Histogram* m_queue_wait_ = nullptr;

  std::vector<Worker> workers_;
  std::unique_ptr<ThreadPool> pool_;  ///< dedicated; keep after workers_ so it joins first
  std::atomic<std::uint64_t> next_request_id_{0};
  std::atomic<std::uint64_t> next_batch_id_{0};
  std::atomic<std::uint64_t> last_served_version_{0};
  std::atomic<std::int64_t> rerank_rows_{0};      ///< gathered rows, all workers
  std::atomic<std::int64_t> rerank_due_{0};       ///< next cadence boundary
  std::atomic<std::int64_t> traffic_reranks_{0};  ///< cadence triggers issued

  // Hot-swap plane: the staged snapshot is guarded by model_mutex_; the
  // epoch is the lock-free "did anything change" fast path workers read
  // once per batch.
  std::mutex model_mutex_;
  std::shared_ptr<const ModelSnapshot> staged_model_;  ///< guarded by model_mutex_
  std::atomic<std::uint64_t> model_epoch_{1};

  StageTracer* tracer_ = nullptr;      ///< from config_.telemetry, may be null
  ExemplarRing* exemplars_ = nullptr;  ///< tail-trace ring, null when off
  Gauge* m_served_version_ = nullptr;  ///< serving.last_served_version (telemetry on)
  Gauge* m_model_epoch_ = nullptr;     ///< model.epoch (telemetry on)
};

}  // namespace hyscale
