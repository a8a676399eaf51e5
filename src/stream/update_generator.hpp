// Synthetic update-stream driver for the streaming subsystem, flat or
// sharded.
//
// Emits a deterministic (seeded) mix of edge insertions, edge
// retractions, vertex arrivals (with random feature rows), vertex
// retirements, and feature refreshes against a StreamingGraph or a
// ShardedStreamingGraph.  One op loop, one RNG draw order: a sharded
// run of a config sees the same feed as a flat one, and only three
// points differ — the fixed cadence calls publish() or publish_all();
// deletion targets come from the latest published version or the
// latest adopted cut (a real feed retracts edges it knows exist); and on a sharded graph the report's `publishes`
// counts cut adoptions and `recycled_vertices` is 0.
// Publishing defaults to whoever owns the graph — normally the
// SLO-driven background Publisher(s) a streaming ServingSession runs —
// with an optional fixed cadence (`publish_every` > 0) for deterministic
// tests.  The cadence counts ATTEMPTED operations, accepted or not:
// counting accepted ops only would let an adversarial mix of rejected
// updates (double deletes, duplicate inserts) starve publishing
// entirely, which is exactly the unbounded-staleness failure the
// Publisher exists to rule out.
// A retraction drawn from the visible version can still lose a race
// with an unpublished one — those land in the rejected counters,
// exactly like duplicate inserts.  Paired with serving/LoadGenerator it
// produces the mixed query/update (and churn) workloads bench_streaming
// measures; on its own it is the ingest-throughput microbenchmark.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "common/timer.hpp"
#include "stream/streaming_graph.hpp"

namespace hyscale {

class ShardedStreamingGraph;

struct UpdateGeneratorConfig {
  std::int64_t operations = 1024;     ///< total ops across all threads
  int num_threads = 1;
  double vertex_add_fraction = 0.05;  ///< ops that add a vertex (plus attach edges)
  /// Ops that retire a streamed-in vertex (no-op while none exist, the
  /// op falls through to an edge insertion).  Dataset vertices are
  /// never retired by the generator — entities that age out of a
  /// fraud/recommendation feed are the streamed-in ones.
  double vertex_delete_fraction = 0.0;
  double feature_update_fraction = 0.10;  ///< ops that rewrite a feature row
  /// Ops that retract a live edge drawn from the latest published
  /// version (sharded: the latest adopted cut) — the churn knob (CLI: --delete-frac).
  double edge_delete_fraction = 0.0;
  /// Of the edge-delete ops, the fraction that retracts an edge this
  /// thread itself inserted recently (kept in a small ring) instead of
  /// drawing from the published version — models feeds that cancel
  /// what they just wrote (aborted orders, reverted follows), the
  /// insert/tombstone-pair pattern the annihilation pass GCs without a
  /// rebuild (CLI: --delete-recent-frac).
  double delete_recent_fraction = 0.0;
  int edges_per_op = 1;               ///< edge insertions per edge op
  int edges_per_new_vertex = 3;       ///< attachment edges for a streamed-in vertex
  /// Fixed publish cadence in ATTEMPTED ops (accepted AND rejected, so
  /// rejection storms cannot starve visibility).  0 — the default —
  /// leaves mid-run publishing to the session's SLO Publisher; run()
  /// always publishes once at the end either way.
  std::int64_t publish_every = 0;
  std::uint64_t seed = 13;
  Seconds pacing = 0.0;               ///< optional sleep between ops (rate limiting)
};

struct UpdateReport {
  Seconds wall_time = 0.0;
  std::int64_t operations = 0;
  std::int64_t accepted_edges = 0;      ///< directed insertions that landed
  std::int64_t duplicate_edges = 0;     ///< inserts rejected (already live)
  std::int64_t removed_edges = 0;       ///< directed retractions that landed
  std::int64_t rejected_removals = 0;   ///< retractions of edges no longer live
  std::int64_t added_vertices = 0;
  std::int64_t removed_vertices = 0;
  std::int64_t recycled_vertices = 0;   ///< vertex adds served by a reclaimed id (sharded: 0)
  std::int64_t feature_updates = 0;
  std::int64_t publishes = 0;           ///< sharded: cut adoptions
  double edges_per_second = 0.0;        ///< (accepted + removed) / wall_time

  std::string to_string() const;
};

class UpdateGenerator {
 public:
  /// `graph` must outlive the generator.
  UpdateGenerator(StreamingGraph& graph, UpdateGeneratorConfig config = {});
  UpdateGenerator(ShardedStreamingGraph& graph, UpdateGeneratorConfig config = {});

  /// Runs the full update session; blocks until every thread is done.
  /// Wrap in a std::thread to overlap with a query load.
  UpdateReport run();

 private:
  using Target = std::variant<StreamingGraph*, ShardedStreamingGraph*>;
  UpdateGenerator(Target graph, UpdateGeneratorConfig config);
  template <typename Graph>
  UpdateReport run_on(Graph& graph);

  Target graph_;
  UpdateGeneratorConfig config_;
};

}  // namespace hyscale
