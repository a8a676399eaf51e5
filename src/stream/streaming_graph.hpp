// Versioned dynamic graph: immutable base CSR + delta overlay (edge
// insertions AND tombstones), published as copy-on-publish snapshots.
//
// Writers (ingest threads) append signed edge ops into the DeltaStore
// and update the MutableFeatureStore; readers (samplers, serving
// workers) hold a shared_ptr<const GraphVersion> — a fully immutable
// view of base CSR + overlay — obtained from current().  publish()
// builds a fresh version from a point-in-time delta snapshot and swaps
// the current pointer atomically, so a reader either sees the whole new
// version or the whole old one, never a mix.  compact() folds the delta
// into a fresh CSR via graph/builder — adding net insertions, dropping
// tombstoned edges and isolating fully-deleted vertices — and installs
// it as the new base, keeping post-snapshot arrivals in the buffers
// (epoch cut).
//
// The live adjacency of a vertex is (base minus tombstones) merged with
// the overlay insertions IN SORTED ORDER — identical, element for
// element, to the adjacency a from-scratch build_csr over the live edge
// set would produce.  That makes OverlaySampler bit-identical to
// NeighborSampler over a rebuilt CSR for any fanout and seed, which is
// the invariant the stream-vs-rebuild differential harness checks at
// every publish point.
//
// Deleted vertices stay in the vertex space (ids are stable handles for
// serving) with live degree 0 and a zeroed feature row; streamed-in ids
// are recycled through add_vertex once a compaction has folded the
// death, so churning entity feeds don't grow the extension area
// forever.
//
// Lifetime: versions are shared_ptrs over a shared_ptr'd base CSR, so a
// sampler can keep sampling an old version while newer ones are
// published or the base is swapped underneath.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/timer.hpp"
#include "graph/datasets.hpp"
#include "obs/telemetry.hpp"
#include "runtime/feature_cache.hpp"
#include "stream/delta_store.hpp"
#include "stream/expiry_target.hpp"
#include "stream/feature_store.hpp"

namespace hyscale {

/// Immutable point-in-time view of the evolving graph.  All methods are
/// const and safe for concurrent readers.
class GraphVersion {
 public:
  GraphVersion(std::shared_ptr<const CsrGraph> base, EdgeId base_max_degree,
               DeltaStore::Snapshot overlay, std::uint64_t id);

  VertexId num_vertices() const { return num_vertices_; }
  /// Live directed edges: base + insertions - tombstones.
  EdgeId num_edges() const { return base_->num_edges() + inserted_edges_ - removed_edges_; }
  EdgeId base_edges() const { return base_->num_edges(); }
  EdgeId overlay_edges() const { return inserted_edges_; }   ///< net inserted
  EdgeId removed_edges() const { return removed_edges_; }    ///< net tombstoned

  EdgeId base_degree(VertexId v) const {
    return v < base_->num_vertices() ? base_->degree(v) : 0;
  }
  EdgeId inserted_degree(VertexId v) const {
    const std::int64_t s = slot(v);
    return s < 0 ? 0 : span_size(insert_offsets_, s);
  }
  EdgeId removed_degree(VertexId v) const {
    const std::int64_t s = slot(v);
    return s < 0 ? 0 : span_size(remove_offsets_, s);
  }
  /// Exact live degree — what a rebuilt CSR would report.
  EdgeId degree(VertexId v) const {
    return base_degree(v) - removed_degree(v) + inserted_degree(v);
  }

  std::span<const VertexId> base_neighbors(VertexId v) const {
    return v < base_->num_vertices() ? base_->neighbors(v) : std::span<const VertexId>{};
  }
  std::span<const VertexId> inserted_neighbors(VertexId v) const;
  std::span<const VertexId> removed_neighbors(VertexId v) const;

  /// Appends v's LIVE adjacency to `out` in sorted order: base with
  /// tombstoned entries skipped, merged with the (sorted) overlay
  /// insertions — element-identical to a from-scratch CSR rebuild.
  void append_neighbors(VertexId v, std::vector<VertexId>& out) const;

  /// False for vertices deleted by remove_vertex as of this version.
  /// Dead vertices have live degree 0 and zeroed features; sampling
  /// them yields an empty neighborhood rather than an error.
  bool alive(VertexId v) const;
  std::int64_t num_dead() const { return static_cast<std::int64_t>(dead_.size()); }

  /// Upper bound on the live max degree (exact for overlay-touched
  /// vertices, base max for the rest); precomputed at publish.
  EdgeId max_degree() const { return max_degree_; }

  const CsrGraph& base() const { return *base_; }
  std::uint64_t id() const { return id_; }
  Epoch epoch() const { return epoch_; }

  /// Structural sanity for tests: offsets monotone, ids in range,
  /// insertions disjoint from base, tombstones a subset of base, both
  /// sorted per vertex, dead vertices fully retracted.
  bool validate() const;

 private:
  std::int64_t slot(VertexId v) const {
    const auto it = slot_of_.find(v);
    return it == slot_of_.end() ? -1 : it->second;
  }
  static EdgeId span_size(const std::vector<EdgeId>& offsets, std::int64_t s) {
    return offsets[static_cast<std::size_t>(s) + 1] - offsets[static_cast<std::size_t>(s)];
  }

  std::shared_ptr<const CsrGraph> base_;
  VertexId num_vertices_ = 0;
  EdgeId inserted_edges_ = 0;
  EdgeId removed_edges_ = 0;
  EdgeId max_degree_ = 0;
  Epoch epoch_ = 0;
  std::uint64_t id_ = 0;
  std::vector<VertexId> touched_;
  std::vector<EdgeId> insert_offsets_;  ///< size touched + 1
  std::vector<VertexId> inserts_;       ///< sorted per touched vertex
  std::vector<EdgeId> remove_offsets_;  ///< size touched + 1
  std::vector<VertexId> removes_;      ///< sorted per touched vertex
  std::vector<VertexId> dead_;         ///< sorted dead vertex ids
  std::unordered_map<VertexId, std::int64_t> slot_of_;  ///< vertex -> touched slot
};

struct StreamingConfig {
  /// Insert/remove both directions of every edge (datasets here are
  /// undirected).
  bool symmetric = true;
  std::size_t num_stripes = 64;
  /// Re-rank the attached StaticFeatureCache's admission set at every
  /// fold's REBASE: the hot set is recomputed from the cache's observed
  /// per-vertex access counters with the merged base's live degrees as
  /// tiebreak, stale pinned rows are dropped and every free slot
  /// (including ones evict() freed) is re-admitted.  Default on — the
  /// drift this corrects is a bug, not a policy choice; value-neutral
  /// at fp32 (membership only moves rows between device and host
  /// copies of identical values).  Off restores the fixed
  /// construction-time admission set.
  bool cache_rerank = true;
  /// Serve add_vertex from the free list of fully-compacted deleted
  /// streamed-in ids (the default).  A ShardedStreamingGraph turns this
  /// OFF for its per-shard graphs: every shard holds the full vertex
  /// space, so add_vertex must return the SAME id on every shard — an
  /// id only one shard's compaction schedule happened to reclaim would
  /// diverge the spaces.
  bool recycle_ids = true;
  /// Prepended to every instrument this graph (and its Publisher /
  /// Compactor) registers — "shard0." gives "shard0.stream.publishes" —
  /// so N shards sharing one Telemetry plane never collide in the
  /// registry.  Empty (default) keeps the flat single-graph names.
  std::string metric_prefix;
  /// Telemetry plane to report through: stream.* counters and callback
  /// gauges, publish/fold/annihilate/sweep spans, lifecycle journal
  /// events.  The background maintenance components (Publisher,
  /// Compactor, ExpirySweeper) and the UpdateGenerator reach the same
  /// plane via StreamingGraph::telemetry().  Null = off (default);
  /// must outlive the graph when set.
  Telemetry* telemetry = nullptr;
};

/// Point-in-time ingest/publish counters.
struct StreamStats {
  std::int64_t ingested_edges = 0;     ///< accepted directed insertions
  std::int64_t duplicate_edges = 0;    ///< rejected inserts (already live)
  std::int64_t removed_edges = 0;      ///< accepted directed retractions
  std::int64_t rejected_removals = 0;  ///< removals of edges not live
  std::int64_t added_vertices = 0;
  std::int64_t removed_vertices = 0;
  std::int64_t recycled_vertices = 0;  ///< add_vertex calls served by a reclaimed id
  std::int64_t feature_updates = 0;
  std::int64_t publishes = 0;
  std::int64_t compactions = 0;        ///< full delta->CSR rebuilds
  std::int64_t annihilations = 0;      ///< annihilate() passes that erased ops
  std::int64_t annihilated_ops = 0;    ///< op records erased without a rebuild
  std::int64_t expired_vertices = 0;   ///< entities retired by TTL sweeps
  EdgeId overlay_edges = 0;            ///< pending (unmerged) insert ops
  EdgeId tombstones = 0;               ///< pending (unmerged) remove ops
  EdgeId base_edges = 0;
  std::int64_t dead_vertices = 0;
  std::uint64_t version_id = 0;
  Seconds publish_lag_mean = 0.0;  ///< oldest-pending-ingest -> publish delay
  Seconds publish_lag_max = 0.0;

  std::string to_string() const;
};

class StreamingGraph : public ExpiryTarget {
 public:
  /// Copies the dataset's topology and features as the initial base.
  /// `dataset` must outlive the graph (info/labels are referenced); its
  /// adjacency must be sorted per vertex (build_csr output always is).
  explicit StreamingGraph(const Dataset& dataset, StreamingConfig config = {});
  ~StreamingGraph();  ///< detaches this graph's callback gauges

  StreamingGraph(const StreamingGraph&) = delete;
  StreamingGraph& operator=(const StreamingGraph&) = delete;

  // ---- ingest (thread-safe, lock-striped) ----

  /// Inserts edge {u, v} (both directions when config.symmetric).
  /// Returns false for self loops, edges already live, and dead
  /// endpoints.  The edge becomes visible to samplers at the next
  /// publish().  Re-inserting a previously deleted edge is valid and
  /// cancels the tombstone.
  bool add_edge(VertexId u, VertexId v);

  /// Retracts edge {u, v} (both directions when config.symmetric).
  /// Returns false when the edge is not currently live — double
  /// deletes are rejected, not crashed on.  Deleting a pending
  /// (unpublished) insertion is valid.
  bool remove_edge(VertexId u, VertexId v);

  /// Adds one vertex with the given feature row; returns its id.
  /// Recycles the id (and feature row) of a fully-compacted deleted
  /// streamed-in vertex when one is available (symmetric config only —
  /// directed ingest cannot prove a retirement scrubbed every
  /// in-edge), else grows the vertex space.  The vertex becomes
  /// sample-able after the next publish().
  VertexId add_vertex(std::span<const float> features);

  /// Retracts every live edge of v, marks it dead, zeroes (and for
  /// streamed-in vertices, reclaims) its feature row, and evicts it
  /// from the attached cache so retracted entities are never served.
  /// Returns false when v is already dead.  The id itself stays valid
  /// (live degree 0) until recycled.
  bool remove_vertex(VertexId v);

  /// Overwrites v's feature row and refreshes any attached
  /// StaticFeatureCache so the new values are served immediately
  /// (features are NOT versioned — freshness beats snapshot isolation
  /// for embeddings/profiles).  Returns false for dead vertices — a
  /// retracted entity's zeroed row is never repopulated.
  bool update_feature(VertexId v, std::span<const float> values);

  /// Halo-mirror refresh: overwrites v's feature row and invalidates
  /// any cached device copy WITHOUT counting a feature update or
  /// touching freshness markers — this is a replica catching up to the
  /// owner shard's row, not new ingest.  Dead vertices are skipped
  /// (their zeroed row must stay zeroed).  Only meaningful when this
  /// graph is a non-owner shard inside a ShardedStreamingGraph.
  void refresh_mirror_row(VertexId v, std::span<const float> values);

  // ---- versions ----

  /// Builds an immutable snapshot of base + pending delta (insertions
  /// and tombstones) and makes it the current version.  O(overlay)
  /// copy, single atomic swap.
  std::shared_ptr<const GraphVersion> publish();

  /// The latest published version.  Never null; never half-published.
  std::shared_ptr<const GraphVersion> current() const;

  /// Merges base + delta into a fresh CSR (graph/builder) — net
  /// insertions added, tombstoned edges dropped, dead vertices
  /// isolated — installs it as the new base and republishes.  Ops
  /// ingested after the internal snapshot survive in the delta (epoch
  /// cut).  Returns false when there was nothing to merge, or when
  /// another fold is already in flight.
  ///
  /// NON-BLOCKING fold state machine: the maintenance mutex is held
  /// only for the two cheap endpoints, never for the O(base) build —
  ///
  ///   1. CUT (locked): snapshot the delta, advance the epoch, mark the
  ///      fold in flight (DeltaStore::begin_fold pins the cut so
  ///      annihilation cannot erase a pair straddling it);
  ///   2. BUILD (off-lock): enumerate base-minus-tombstones plus
  ///      insertions and build the merged CSR — publishes, ingest,
  ///      gated annihilation passes, sweeps all interleave freely, so
  ///      the publisher's staleness bound no longer carries a fold
  ///      stall;
  ///   3. REBASE (locked): re-validate the cut against the store
  ///      (rebase throws if the frontier moved), swap-then-truncate,
  ///      republish everything pending, clear the in-flight flag.
  ///
  /// Ops that land mid-build are stamped above the cut, survive the
  /// truncate, and apply identically over the merged base — the
  /// per-pair alternation invariant continues across the swap.
  bool compact();

  /// Whether a fold cut is outstanding (compact() is between its cut
  /// and its rebase).  The compactor consults this instead of starting
  /// a second fold that would only be refused.
  bool fold_in_flight() const { return fold_in_flight_.load(std::memory_order_acquire); }

  /// Cheap tombstone GC: erases cancelled insert/tombstone pairs from
  /// the op buffers in place (DeltaStore::annihilate) — no rebuild, no
  /// republish (published versions never saw the erased ops, and the
  /// net overlay is unchanged).  The compactor runs this as its first
  /// resort so delete-heavy churn stops forcing full CSR rebuilds
  /// whose only effect is truncation.  Safe to run while a fold's
  /// off-lock build is in flight: the store clamps the pass to ops
  /// stamped after the fold's cut, so a pair the fold captured is
  /// never erased out from under its rebase.  Returns op records
  /// erased.
  EdgeId annihilate();

  /// One TTL eviction pass: retires (remove_vertex) up to `max_retire`
  /// streamed-in vertices whose feature row was last touched more than
  /// `ttl` seconds ago, scanning ids in ascending order (deterministic
  /// — the differential harness's shadow expiry mirrors it).  Dataset
  /// vertices never expire; dead vertices are skipped.  When
  /// `pending_op_budget` > 0 the sweep stops as soon as the overlay
  /// holds that many ops, so a retirement burst paces itself against
  /// the compaction trigger instead of stampeding rebuilds.  Returns
  /// the number of vertices retired.
  std::int64_t sweep_expired(Seconds ttl, std::int64_t max_retire,
                             EdgeId pending_op_budget = 0) override;

  /// Age of the oldest accepted-but-unpublished op, 0 when everything
  /// ingested is already visible — the signal the SLO publisher closes
  /// its staleness budget against.
  Seconds pending_staleness() const;

  // ---- feature access ----

  MutableFeatureStore& features() { return features_; }
  const MutableFeatureStore& features() const { return features_; }

  /// Serving gather: pinned rows from the attached cache's device copy,
  /// everything else from the feature store.  Returns hit/miss traffic
  /// for the serving.cache_* counters.  Also refreshes the last-touch stamps of every
  /// gathered streamed-in vertex (one batched pass), so a read-hot
  /// entity that is never re-written still survives TTL sweeps — true
  /// LRU, not write-only TTL.
  StaticFeatureCache::LoadStats gather(std::span<const VertexId> nodes, Tensor& out) const;

  /// Scratch-reusing variant for the serving hot path: `hit_scratch` is
  /// the per-row hit bitmap, resized in place — a worker that passes the
  /// same vector every batch amortises the allocation to zero.  Byte
  /// accounting follows the active precisions (cache device rows, store
  /// wire rows), so the hits/misses traffic split reflects what an int8
  /// transfer actually moves.
  StaticFeatureCache::LoadStats gather(std::span<const VertexId> nodes, Tensor& out,
                                       std::vector<char>& hit_scratch) const;

  /// Registers the cache refreshed by update_feature and evicted from
  /// by remove_vertex (pass nullptr to detach).  The cache must be
  /// built over features().base().
  void attach_cache(StaticFeatureCache* cache);

  /// On-demand re-rank of the attached cache over the CURRENT base —
  /// the fold-independent path (periodic or traffic-triggered callers:
  /// InferenceServer's gathered-rows cadence, a shard facade's
  /// rerank_all).  Same ranking as the REBASE-time re-rank; no-op when
  /// no cache is attached.
  void rerank_now();

  // ---- test seams ----

  /// Test-only: invoked during compact() after the off-lock CSR build
  /// completes, before the rebase critical section — with the
  /// maintenance mutex RELEASED and the fold cut in flight.  Tests park
  /// the hook to hold a fold open and interleave publishes, ingest and
  /// annihilation passes against it.  Pass nullptr to clear.
  void set_fold_hook(std::function<void()> hook);

  /// Test-only: invoked inside publish() while the maintenance mutex is
  /// held, before the version install — inflates publish cost so the
  /// publisher's completion-time staleness accounting can be pinned.
  /// Pass nullptr to clear.
  void set_publish_hook(std::function<void()> hook);

  // ---- observability ----

  EdgeId overlay_edges() const { return delta_.delta_edges(); }
  EdgeId overlay_tombstones() const { return delta_.delta_removes(); }
  /// Pending ops of either sign — the compaction trigger: tombstones
  /// cost sampling-path skips just like insertions cost merges.
  EdgeId overlay_ops() const { return delta_.delta_ops(); }
  /// Dead streamed-in ids waiting for a compaction to fold their death
  /// (the other compaction trigger: an op-less retirement — an already
  /// isolated vertex — would otherwise never be recycled).
  bool has_pending_scrubs() const { return delta_.has_pending_scrubs(); }
  /// Scrubbed ids add_vertex can hand out right now.
  std::int64_t recyclable_vertices() const { return delta_.recyclable_vertices(); }
  double overlay_ratio() const;
  VertexId num_vertices() const { return delta_.num_vertices(); }
  const Dataset& dataset() const { return *dataset_; }
  const StreamingConfig& config() const { return config_; }
  /// The telemetry plane this graph was configured with (null = off).
  /// Background maintenance components report through it.
  Telemetry* telemetry() const override { return config_.telemetry; }
  const char* expiry_scope() const override { return "stream"; }
  StreamStats stats() const;

 private:
  void bind_telemetry();
  /// Recomputes the attached cache's hot set from its observed access
  /// counters (live degrees over `base` as tiebreak, dead vertices
  /// excluded) and calls StaticFeatureCache::rerank.  Invoked by
  /// compact() right after the REBASE installs the merged CSR, under
  /// cache_mutex_ so no update/remove is mid-flight on a host row the
  /// re-admission copies from.
  void rerank_cache(const CsrGraph& base);
  std::shared_ptr<const CsrGraph> base_snapshot() const;
  std::shared_ptr<const GraphVersion> install_version(
      std::shared_ptr<const CsrGraph> base, EdgeId base_max_degree,
      DeltaStore::Snapshot snapshot,
      std::optional<std::chrono::steady_clock::time_point> pending_marker);
  void note_pending_ingest();
  /// Claims the oldest-pending-ingest marker and clears it.  MUST be
  /// called BEFORE the delta snapshot that will satisfy it: an op
  /// accepted after the claim re-arms the marker even if the snapshot
  /// happens to capture it (one redundant publish at worst), so no
  /// accepted op can ever lose its marker and sit invisible past the
  /// publisher's staleness budget.  compact()'s CUT deliberately does
  /// NOT claim: the cut ops stay invisible until a publish or the
  /// rebase, so their marker must keep driving the publisher while the
  /// build runs off-lock.
  std::optional<std::chrono::steady_clock::time_point> take_pending_marker();

  const Dataset* dataset_;
  StreamingConfig config_;
  DeltaStore delta_;
  MutableFeatureStore features_;

  mutable std::mutex version_mutex_;  ///< guards base_/base_max_degree_/current_
  std::shared_ptr<const CsrGraph> base_;
  EdgeId base_max_degree_ = 0;
  std::shared_ptr<const GraphVersion> current_;
  std::atomic<std::uint64_t> version_counter_{0};

  /// Serializes publish() with compact()'s cut and rebase endpoints —
  /// NOT with the O(base) build between them, which runs off-lock so
  /// publishes never stall behind a fold.
  std::mutex maintenance_mutex_;
  std::atomic<bool> fold_in_flight_{false};  ///< compact() between cut and rebase
  std::mutex vertex_mutex_;       ///< keeps feature rows and vertex ids in lockstep

  mutable std::mutex hook_mutex_;  ///< guards the test seams below
  std::function<void()> fold_hook_;
  std::function<void()> publish_hook_;

  mutable std::mutex cache_mutex_;  ///< guards cache_ pointer + feature update/refresh pairs
  StaticFeatureCache* cache_ = nullptr;

  mutable std::mutex lag_mutex_;  ///< publish-lag bookkeeping
  std::optional<std::chrono::steady_clock::time_point> pending_since_;
  Seconds lag_sum_ = 0.0;
  Seconds lag_max_ = 0.0;
  std::int64_t lag_samples_ = 0;

  std::atomic<std::int64_t> ingested_edges_{0};
  std::atomic<std::int64_t> duplicate_edges_{0};
  std::atomic<std::int64_t> removed_edges_{0};
  std::atomic<std::int64_t> rejected_removals_{0};
  std::atomic<std::int64_t> added_vertices_{0};
  std::atomic<std::int64_t> removed_vertices_{0};
  std::atomic<std::int64_t> recycled_vertices_{0};
  std::atomic<std::int64_t> feature_updates_{0};
  std::atomic<std::int64_t> publishes_{0};
  std::atomic<std::int64_t> compactions_{0};
  std::atomic<std::int64_t> annihilations_{0};
  std::atomic<std::int64_t> expired_vertices_{0};

  // Registry mirrors + tracer/journal; all null when telemetry is off.
  StageTracer* tracer_ = nullptr;
  EventJournal* journal_ = nullptr;
  Counter* m_ingested_ = nullptr;
  Counter* m_duplicates_ = nullptr;
  Counter* m_removed_ = nullptr;
  Counter* m_rejected_removals_ = nullptr;
  Counter* m_added_vertices_ = nullptr;
  Counter* m_removed_vertices_ = nullptr;
  Counter* m_recycled_vertices_ = nullptr;
  Counter* m_feature_updates_ = nullptr;
  Counter* m_publishes_ = nullptr;
  Counter* m_compactions_ = nullptr;
  Counter* m_annihilations_ = nullptr;
  Counter* m_expired_ = nullptr;
  Counter* m_cache_reranks_ = nullptr;
  Histogram* m_publish_lag_ = nullptr;
};

}  // namespace hyscale
