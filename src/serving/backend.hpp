// The serving seam: one mode-blind per-batch contract.
//
// The serving tier runs in three modes — static (the immutable dataset
// CSR), streaming (the latest published GraphVersion of an evolving
// graph), and sharded (the latest adopted cross-shard ShardedCut).
// What a worker does per micro-batch is the same in all three:
//
//   acquire a consistent snapshot handle -> sample a computation graph
//   over it -> gather input features at wire precision through the
//   right cache -> release the handle
//
// ServingBackend captures exactly that contract plus the lifecycle
// around it (cache ownership and telemetry registration, the
// traffic-cadence re-rank hook, TTL expiry forwarding, the mode label
// journal events and benches key on), so InferenceServer — and every
// future consumer: the wire/snapshot plane (ROADMAP item 2), model
// refresh loops (item 4), per-shard replication (item 1b) — is written
// once against this interface instead of three times against concrete
// graphs.  Factories for the three shipped backends live in
// static_backend.hpp / streaming_backend.hpp / sharded_backend.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "graph/datasets.hpp"
#include "runtime/feature_cache.hpp"
#include "sampling/minibatch.hpp"
#include "serving/batcher.hpp"
#include "stream/expiry_target.hpp"

namespace hyscale {

class MetricsRegistry;
class Telemetry;

struct ServingConfig {
  /// Inference fanouts, input layer first (like HybridTrainerConfig).
  /// EMPTY means full-neighborhood inference — exact logits, higher
  /// cost; the equivalence tests rely on it.
  std::vector<int> fanouts;
  int num_workers = 2;
  BatchPolicy batch;
  /// Rows pinned by the PaGraph-style static cache; 0 disables it and
  /// gathers go through a per-worker FeatureLoader.
  std::int64_t cache_capacity_rows = 0;
  /// Feature transfer precision for the gather hot path: device cache
  /// rows are stored (and streaming host fetches are wire-simulated) at
  /// this precision.  kInt8 moves ~4x fewer bytes per row at the
  /// documented per-row quantization error; kFp16 is rejected at
  /// construction.  Default kFp32 (lossless).
  TransferPrecision transfer_precision = TransferPrecision::kFp32;
  std::uint64_t seed = 1;
  /// Traffic-triggered cache re-rank cadence, in gathered input rows
  /// summed across all workers: every N rows the serving tier recomputes
  /// the attached cache's hot set from its observed access counters
  /// (streaming: StreamingGraph::rerank_now; sharded: every shard's
  /// cache; static: the same traffic-first/degree-tiebreak ranking over
  /// the dataset graph).  Decouples admission-drift correction from
  /// compaction folds — a serving-heavy session whose quiet ingest never
  /// triggers a fold still re-ranks.  0 (default) leaves re-ranking to
  /// the fold-time path alone.
  std::int64_t cache_rerank_every_rows = 0;
  /// Telemetry plane (obs/) to report through: serving.* instruments,
  /// request/batch stage spans.  Null = telemetry off (default); must
  /// outlive the server when set.
  Telemetry* telemetry = nullptr;
};

/// One worker's handle on a backend: the per-batch acquire -> sample ->
/// gather -> release contract.  A session is single-threaded (each
/// serving worker owns one) and must not outlive its backend.
class BackendSession {
 public:
  virtual ~BackendSession() = default;

  /// Pins the freshest consistent snapshot for ONE micro-batch (the
  /// latest published GraphVersion, the latest adopted ShardedCut, or
  /// the immutable dataset CSR) and returns its monotone freshness id
  /// (version id / cut id; 0 for the static snapshot).  In-flight
  /// batches keep their snapshot until release() — snapshot isolation
  /// per micro-batch.
  virtual std::uint64_t acquire() = 0;

  /// Samples one computation graph for `seeds` over the acquired
  /// snapshot: at the configured fanouts when non-empty (the sampler is
  /// reseeded with `stream_seed`, so a given batch composition yields
  /// the same blocks on any worker), full-neighborhood (exact)
  /// otherwise.
  virtual MiniBatch sample(const std::vector<VertexId>& seeds,
                           std::uint64_t stream_seed) = 0;

  /// Gathers the batch's input features into `out` at the backend's
  /// wire precision, through its cache when one is configured.
  /// Returns the cache traffic to account (nullopt when the backend
  /// has no cache in the path).  `hit_scratch` is worker-owned reusable
  /// hit-bitmap scratch.
  virtual std::optional<StaticFeatureCache::LoadStats> gather(
      const MiniBatch& batch, Tensor& out, std::vector<char>& hit_scratch) = 0;

  /// Drops the acquired snapshot handle.  Must be called (even on
  /// failure paths) before the next acquire().
  virtual void release() = 0;
};

/// A serving data plane: everything mode-specific the InferenceServer
/// needs, behind one interface.  Backends own the device caches they
/// build (attaching them to their graphs for invalidation/eviction and
/// detaching on destruction) and implement ExpiryTarget so one
/// ExpirySweeper paces TTL retirement over whichever graph is behind
/// the seam.  A backend serves one InferenceServer at a time and must
/// outlive it.
class ServingBackend : public ExpiryTarget {
 public:
  /// Mode label: "static", "streaming", or "sharded" — the `backend=`
  /// tag on journal events and the stable name dashboards key on.
  virtual const char* name() const = 0;

  virtual const Dataset& dataset() const = 0;

  /// Upper bound (exclusive) on queryable seed ids right now: vertices
  /// become queryable once a snapshot containing them is published /
  /// adopted (execute-time snapshots are monotonically newer, so
  /// admission at submit time stays valid at batch time).
  virtual VertexId query_limit() const = 0;

  /// One session per worker.  `sampler_seed` seeds the worker's sampler
  /// construction (per-batch reseeds override it); `num_layers` sizes
  /// the full-neighborhood fallback when the fanouts are empty.
  virtual std::unique_ptr<BackendSession> make_session(std::uint64_t sampler_seed,
                                                       int num_layers) = 0;

  /// True when a device cache sits in this backend's gather path (the
  /// traffic re-rank cadence is meaningless without one).
  virtual bool has_cache() const { return false; }
  /// The flat device cache (static/streaming modes; null in sharded
  /// mode or when disabled).
  virtual const StaticFeatureCache* cache() const { return nullptr; }
  /// Shard `s`'s device cache (sharded mode with a cache configured;
  /// null otherwise).
  virtual const StaticFeatureCache* shard_cache(int /*s*/) const { return nullptr; }

  /// Traffic-cadence hook: recompute the hot set of every cache in the
  /// gather path from observed access counters.
  virtual void rerank() = 0;

  /// Registers this backend's cache.* callback gauges on `registry`
  /// (owner = the backend; detached when the backend dies).  Re-binding
  /// to the same registry is a no-op; `registry` must outlive the
  /// backend once bound.
  virtual void bind_metrics(MetricsRegistry& registry) = 0;

  // ExpiryTarget: defaults for backends with nothing to expire (the
  // static dataset doesn't age).  Streaming/sharded backends forward to
  // their graph so session facades hang ONE sweeper off the seam.
  std::int64_t sweep_expired(Seconds /*ttl*/, std::int64_t /*max_retire*/,
                             EdgeId /*pending_op_budget*/) override {
    return 0;
  }
  Telemetry* telemetry() const override { return nullptr; }
  const char* expiry_scope() const override { return name(); }
};

}  // namespace hyscale
