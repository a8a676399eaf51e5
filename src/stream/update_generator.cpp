#include "stream/update_generator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/strutil.hpp"
#include "shard/sharded_graph.hpp"

namespace hyscale {

namespace {

// The three points where the flat and sharded stacks differ.
void publish(StreamingGraph& graph) { graph.publish(); }
void publish(ShardedStreamingGraph& graph) { graph.publish_all(); }

std::shared_ptr<const GraphVersion> visible(const StreamingGraph& graph) {
  return graph.current();
}
std::shared_ptr<const ShardedCut> visible(const ShardedStreamingGraph& graph) {
  return graph.current_cut();
}

// A sharded graph recycles no ids, and its visibility event is a cut
// adoption.
std::int64_t recycled(const StreamStats& stats) { return stats.recycled_vertices; }
std::int64_t recycled(const ShardedStats&) { return 0; }
std::int64_t publishes(const StreamStats& stats) { return stats.publishes; }
std::int64_t publishes(const ShardedStats& stats) { return stats.cut_adoptions; }

}  // namespace

UpdateGenerator::UpdateGenerator(StreamingGraph& graph, UpdateGeneratorConfig config)
    : UpdateGenerator(Target{&graph}, config) {}

UpdateGenerator::UpdateGenerator(ShardedStreamingGraph& graph, UpdateGeneratorConfig config)
    : UpdateGenerator(Target{&graph}, config) {}

UpdateGenerator::UpdateGenerator(Target graph, UpdateGeneratorConfig config)
    : graph_(graph), config_(config) {
  if (config_.operations < 0) throw std::invalid_argument("UpdateGenerator: negative operations");
  if (config_.num_threads < 1)
    throw std::invalid_argument("UpdateGenerator: num_threads must be >= 1");
  if (config_.edges_per_op < 1)
    throw std::invalid_argument("UpdateGenerator: edges_per_op must be >= 1");
  const double fractions = config_.vertex_add_fraction + config_.vertex_delete_fraction +
                           config_.feature_update_fraction + config_.edge_delete_fraction;
  if (config_.vertex_add_fraction < 0.0 || config_.vertex_delete_fraction < 0.0 ||
      config_.feature_update_fraction < 0.0 || config_.edge_delete_fraction < 0.0 ||
      fractions > 1.0)
    throw std::invalid_argument("UpdateGenerator: op fractions must be >= 0 and sum to <= 1");
  if (config_.delete_recent_fraction < 0.0 || config_.delete_recent_fraction > 1.0)
    throw std::invalid_argument("UpdateGenerator: delete_recent_fraction must be in [0, 1]");
}

UpdateReport UpdateGenerator::run() {
  return std::visit([this](auto* graph) { return run_on(*graph); }, graph_);
}

template <typename Graph>
UpdateReport UpdateGenerator::run_on(Graph& graph) {
  const std::int64_t cols = graph.dataset().features.cols();
  const VertexId dataset_vertices = graph.dataset().graph.num_vertices();
  std::atomic<std::int64_t> completed_ops{0};

  // The graph's own counters are the single source of truth; the report
  // is the delta over this run (assumes no other writer is active,
  // which is how the benches and tests drive it).
  const auto before = graph.stats();
  Timer wall;
  auto worker = [&](int t, std::int64_t ops) {
    Xoshiro256 rng(config_.seed + static_cast<std::uint64_t>(t) * 0x9e3779b97f4a7c15ULL);
    std::vector<float> row(static_cast<std::size_t>(cols));
    std::vector<VertexId> adjacency;
    // Ring of this thread's recent insertions — the pool
    // delete_recent_fraction retracts from (cancelled-pair churn).
    constexpr std::size_t kRecentCap = 64;
    std::vector<std::pair<VertexId, VertexId>> recent;
    std::size_t recent_cursor = 0;
    auto note_insert = [&](VertexId a, VertexId b) {
      if (recent.size() < kRecentCap) {
        recent.emplace_back(a, b);
      } else {
        recent[recent_cursor] = {a, b};
        recent_cursor = (recent_cursor + 1) % kRecentCap;
      }
    };
    for (std::int64_t op = 0; op < ops; ++op) {
      double kind = rng.uniform();
      const VertexId n = graph.num_vertices();
      const double add_cut = config_.vertex_add_fraction;
      const double vdel_cut = add_cut + config_.vertex_delete_fraction;
      const double feat_cut = vdel_cut + config_.feature_update_fraction;
      const double edel_cut = feat_cut + config_.edge_delete_fraction;
      if (kind < vdel_cut && kind >= add_cut && n <= dataset_vertices) {
        kind = edel_cut;  // no streamed-in vertex to retire yet: insert instead
      }
      if (kind < add_cut) {
        for (float& x : row) x = static_cast<float>(rng.normal());
        const VertexId v = graph.add_vertex(row);
        for (int e = 0; e < config_.edges_per_new_vertex; ++e) {
          graph.add_edge(v, static_cast<VertexId>(rng.bounded(static_cast<std::uint64_t>(n))));
        }
      } else if (kind < vdel_cut) {
        const auto span = static_cast<std::uint64_t>(n - dataset_vertices);
        graph.remove_vertex(dataset_vertices + static_cast<VertexId>(rng.bounded(span)));
      } else if (kind < feat_cut) {
        const auto v = static_cast<VertexId>(rng.bounded(static_cast<std::uint64_t>(n)));
        for (float& x : row) x = static_cast<float>(rng.normal());
        graph.update_feature(v, row);
      } else if (kind < edel_cut) {
        if (!recent.empty() && rng.uniform() < config_.delete_recent_fraction) {
          // Cancel one of this thread's own recent insertions — a
          // double retraction (already removed, folded, or racing) just
          // lands in rejected_removals like any stale delete.
          const auto pick = rng.bounded(static_cast<std::uint64_t>(recent.size()));
          const auto [a, b] = recent[static_cast<std::size_t>(pick)];
          graph.remove_edge(a, b);
        } else {
          // Retract a live edge of a random vertex per the latest
          // visible version; racing an unpublished retraction just
          // lands in rejected_removals.
          const auto version = visible(graph);
          const auto u = static_cast<VertexId>(
              rng.bounded(static_cast<std::uint64_t>(version->num_vertices())));
          adjacency.clear();
          version->append_neighbors(u, adjacency);
          if (!adjacency.empty()) {
            const auto pick = rng.bounded(static_cast<std::uint64_t>(adjacency.size()));
            graph.remove_edge(u, adjacency[static_cast<std::size_t>(pick)]);
          }
        }
      } else {
        for (int e = 0; e < config_.edges_per_op; ++e) {
          const auto u = static_cast<VertexId>(rng.bounded(static_cast<std::uint64_t>(n)));
          const auto v = static_cast<VertexId>(rng.bounded(static_cast<std::uint64_t>(n)));
          if (graph.add_edge(u, v)) note_insert(u, v);
        }
      }
      // `done` counts attempted ops — an all-rejected adversarial mix
      // still crosses every cadence boundary, so fixed-cadence
      // publishing cannot be starved (pinned by the lifecycle tests).
      const std::int64_t done = completed_ops.fetch_add(1, std::memory_order_relaxed) + 1;
      if (config_.publish_every > 0 && done % config_.publish_every == 0) {
        publish(graph);
      }
      if (config_.pacing > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(config_.pacing));
      }
    }
  };

  std::vector<std::thread> threads;
  const std::int64_t per_thread = config_.operations / config_.num_threads;
  const std::int64_t remainder = config_.operations % config_.num_threads;
  for (int t = 0; t < config_.num_threads; ++t) {
    const std::int64_t ops = per_thread + (t < remainder ? 1 : 0);
    threads.emplace_back(worker, t, ops);
  }
  for (auto& thread : threads) thread.join();

  // Final publish so every accepted update is visible to queries.
  publish(graph);

  const auto after = graph.stats();
  UpdateReport report;
  report.wall_time = wall.elapsed();
  report.operations = config_.operations;
  report.accepted_edges = after.ingested_edges - before.ingested_edges;
  report.duplicate_edges = after.duplicate_edges - before.duplicate_edges;
  report.removed_edges = after.removed_edges - before.removed_edges;
  report.rejected_removals = after.rejected_removals - before.rejected_removals;
  report.added_vertices = after.added_vertices - before.added_vertices;
  report.removed_vertices = after.removed_vertices - before.removed_vertices;
  report.recycled_vertices = recycled(after) - recycled(before);
  report.feature_updates = after.feature_updates - before.feature_updates;
  report.publishes = publishes(after) - publishes(before);
  report.edges_per_second =
      report.wall_time > 0.0
          ? static_cast<double>(report.accepted_edges + report.removed_edges) / report.wall_time
          : 0.0;
  if (Telemetry* telemetry = graph.telemetry(); telemetry != nullptr) {
    // Session-level ingest summary; the per-op stream.* counters were
    // mirrored live by the graph as each op landed.
    MetricsRegistry& reg = telemetry->registry();
    reg.counter("ingest.operations").add(report.operations);
    reg.gauge("ingest.wall_seconds").set(report.wall_time);
    reg.gauge("ingest.edges_per_second").set(report.edges_per_second);
  }
  return report;
}

std::string UpdateReport::to_string() const {
  std::string out;
  out += "ops=" + format_count(static_cast<std::uint64_t>(operations));
  out += " edges=" + format_count(static_cast<std::uint64_t>(accepted_edges));
  out += " dup=" + format_count(static_cast<std::uint64_t>(duplicate_edges));
  out += " removed=" + format_count(static_cast<std::uint64_t>(removed_edges));
  out += " vertices+=" + format_count(static_cast<std::uint64_t>(added_vertices));
  out += " vertices-=" + format_count(static_cast<std::uint64_t>(removed_vertices));
  out += " feat=" + format_count(static_cast<std::uint64_t>(feature_updates));
  out += " publishes=" + format_count(static_cast<std::uint64_t>(publishes));
  out += " rate=" + format_double(edges_per_second, 0) + " e/s";
  return out;
}

}  // namespace hyscale
