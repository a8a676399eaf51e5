// Tests for the sharded streaming serving tier (src/shard/): owner
// routing and lockstep vertex spaces across shards, halo mirror
// refresh at cut adoption, consistent-cut semantics (staleness
// detection, monotone cut ids, no-op adoption), the background
// CutAdopter, UpdateGenerator over the facade, and the serving tier's
// sharded mode (per-shard caches, routed gathers, traffic-triggered
// cache re-ranks).  Bit-level parity against the flat stack lives in
// test_shard_differential.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/hyscale.hpp"

namespace hyscale {
namespace {

const Dataset& community() {
  static const Dataset ds = make_community_dataset(3, 32, 8, 2);
  return ds;
}

ModelConfig small_model_config() {
  ModelConfig config;
  config.kind = GnnKind::kSage;
  config.dims = {8, 16, 3};
  config.seed = 11;
  return config;
}

ShardedConfig sharded_config(int shards,
                             ShardedConfig::Partitioner partitioner =
                                 ShardedConfig::Partitioner::kHash) {
  ShardedConfig config;
  config.num_shards = shards;
  config.partitioner = partitioner;
  return config;
}

// ------------------------------------------------------------ facade basics

TEST(ShardedGraph, RejectsDegenerateConfigs) {
  EXPECT_THROW(ShardedStreamingGraph(community(), sharded_config(0)),
               std::invalid_argument);
  ShardedConfig asymmetric = sharded_config(2);
  asymmetric.stream.symmetric = false;
  EXPECT_THROW(ShardedStreamingGraph(community(), asymmetric), std::invalid_argument);
}

TEST(ShardedGraph, OwnerShardHoldsCompleteAdjacency) {
  // The bit-identity contract's topology leg: shard s's base keeps every
  // edge incident to a vertex it owns, so the owner's version serves the
  // vertex's FULL live neighborhood, element-identical to the dataset.
  const Dataset& ds = community();
  for (const auto partitioner :
       {ShardedConfig::Partitioner::kHash, ShardedConfig::Partitioner::kBfs}) {
    ShardedStreamingGraph graph(ds, sharded_config(3, partitioner));
    const auto cut = graph.current_cut();
    std::vector<VertexId> live;
    for (VertexId v = 0; v < ds.graph.num_vertices(); ++v) {
      EXPECT_EQ(graph.owner(v), graph.partition().assignment[static_cast<std::size_t>(v)]);
      ASSERT_EQ(cut->degree(v), ds.graph.degree(v)) << "vertex " << v;
      live.clear();
      cut->append_neighbors(v, live);
      const auto expected = ds.graph.neighbors(v);
      ASSERT_TRUE(std::equal(live.begin(), live.end(), expected.begin(), expected.end()))
          << "vertex " << v;
    }
  }
}

TEST(ShardedGraph, SingleShardDegeneratesToFlatBehaviour) {
  ShardedStreamingGraph graph(community(), sharded_config(1));
  EXPECT_EQ(graph.num_shards(), 1);
  EXPECT_TRUE(graph.add_edge(0, 9));
  EXPECT_FALSE(graph.add_edge(0, 9));  // duplicate
  graph.publish_all();
  EXPECT_EQ(graph.current_cut()->degree(0), community().graph.degree(0) + 1);
}

TEST(ShardedGraph, VertexSpacesStayInLockstep) {
  ShardedStreamingGraph graph(community(), sharded_config(3));
  const VertexId before = graph.num_vertices();
  const std::vector<float> row(8, 0.5f);
  const VertexId a = graph.add_vertex(row);
  const VertexId b = graph.add_vertex(row);
  EXPECT_EQ(a, before);
  EXPECT_EQ(b, before + 1);
  for (int s = 0; s < graph.num_shards(); ++s) {
    EXPECT_EQ(graph.shard(s).num_vertices(), before + 2) << "shard " << s;
  }
  // Streamed-in vertices have a deterministic hashed owner and can be
  // wired into the topology through the facade.
  const int owner = graph.owner(a);
  EXPECT_GE(owner, 0);
  EXPECT_LT(owner, graph.num_shards());
  EXPECT_EQ(owner, graph.owner(a));  // stable
  EXPECT_TRUE(graph.add_edge(a, 0));
  EXPECT_TRUE(graph.remove_vertex(a));
  EXPECT_FALSE(graph.remove_vertex(a));  // double retirement rejected
  graph.publish_all();
  EXPECT_FALSE(graph.current_cut()->alive(a));
  EXPECT_TRUE(graph.current_cut()->alive(b));
}

TEST(ShardedGraph, EdgeOpsRouteToBothEndpointOwners) {
  const Dataset& ds = community();
  ShardedStreamingGraph graph(ds, sharded_config(2));
  // Find a cross-shard vertex pair with no existing edge.
  VertexId u = -1, v = -1;
  for (VertexId a = 0; a < ds.graph.num_vertices() && u < 0; ++a) {
    for (VertexId b = 0; b < ds.graph.num_vertices(); ++b) {
      if (a == b || graph.owner(a) == graph.owner(b)) continue;
      const auto nbrs = ds.graph.neighbors(a);
      if (std::find(nbrs.begin(), nbrs.end(), b) != nbrs.end()) continue;
      u = a;
      v = b;
      break;
    }
  }
  ASSERT_GE(u, 0) << "community dataset should have a cross-shard non-edge";
  EXPECT_TRUE(graph.add_edge(u, v));
  EXPECT_FALSE(graph.add_edge(v, u));  // duplicate through either endpoint
  graph.publish_all();
  const auto cut = graph.current_cut();
  // Both owners serve the edge: degree grew on each endpoint's owner row.
  std::vector<VertexId> nbrs;
  cut->append_neighbors(u, nbrs);
  EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), v), nbrs.end());
  nbrs.clear();
  cut->append_neighbors(v, nbrs);
  EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), u), nbrs.end());
  EXPECT_TRUE(graph.remove_edge(u, v));
  EXPECT_FALSE(graph.remove_edge(u, v));
  const ShardedStats stats = graph.stats();
  EXPECT_EQ(stats.ingested_edges, 2);  // logical count: one undirected insert
  EXPECT_EQ(stats.removed_edges, 2);
  EXPECT_EQ(stats.duplicate_edges, 1);
  EXPECT_EQ(stats.rejected_removals, 1);
}

// ------------------------------------------------------------ halo plane

TEST(ShardedGraph, DirtyHaloRowsServeOwnerDataUntilAdopted) {
  const Dataset& ds = community();
  ShardedStreamingGraph graph(ds, sharded_config(2));
  // A vertex owned by shard 0, gathered through home shard 1: before the
  // refresh the row is dirty and must come from the owner's store.
  VertexId v = 0;
  while (graph.owner(v) != 0) ++v;
  std::vector<float> fresh(8);
  for (std::size_t i = 0; i < fresh.size(); ++i) fresh[i] = static_cast<float>(i) + 0.25f;
  ASSERT_TRUE(graph.update_feature(v, fresh));
  EXPECT_GT(graph.dirty_rows(), 0);

  Tensor out;
  std::vector<char> scratch;
  const std::vector<VertexId> nodes = {v};
  graph.gather(/*home_shard=*/1, std::span<const VertexId>(nodes.data(), nodes.size()), out,
               scratch);
  for (std::size_t c = 0; c < fresh.size(); ++c) {
    EXPECT_FLOAT_EQ(out.at(0, static_cast<std::int64_t>(c)), fresh[c]) << "col " << c;
  }
  const ShardedStats mid = graph.stats();
  EXPECT_GT(mid.cross_shard_rows, 0);  // dirty remote row fetched from its owner

  // Adoption refreshes every mirror and drains the dirty set; the same
  // cross-shard gather now hits the local mirror.
  graph.publish_all();
  EXPECT_EQ(graph.dirty_rows(), 0);
  graph.gather(/*home_shard=*/1, std::span<const VertexId>(nodes.data(), nodes.size()), out,
               scratch);
  for (std::size_t c = 0; c < fresh.size(); ++c) {
    EXPECT_FLOAT_EQ(out.at(0, static_cast<std::int64_t>(c)), fresh[c]) << "col " << c;
  }
  const ShardedStats after = graph.stats();
  EXPECT_GT(after.halo_refreshed_rows, 0);
  EXPECT_GT(after.halo_hits, mid.halo_hits);
}

TEST(ShardedGraph, GatherIsHomeShardInvariant) {
  // The routing tier may pick ANY home shard; the assembled feature
  // block must not depend on the choice (fresh mirrors + dirty-row
  // patching make every home equivalent).
  const Dataset& ds = community();
  ShardedStreamingGraph graph(ds, sharded_config(3));
  std::vector<float> row(8, -1.5f);
  ASSERT_TRUE(graph.update_feature(5, row));  // leave a dirty row in play
  std::vector<VertexId> nodes;
  for (VertexId v = 0; v < ds.graph.num_vertices(); v += 3) nodes.push_back(v);
  Tensor reference;
  std::vector<char> scratch;
  graph.gather(0, std::span<const VertexId>(nodes.data(), nodes.size()), reference, scratch);
  for (int home = 1; home < graph.num_shards(); ++home) {
    Tensor out;
    graph.gather(home, std::span<const VertexId>(nodes.data(), nodes.size()), out, scratch);
    EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(reference, out), 0.0) << "home " << home;
  }
}

// ------------------------------------------------------------ cuts

TEST(ShardedGraph, CutsAdvanceMonotonicallyAndNoOpWhenQuiet) {
  ShardedStreamingGraph graph(community(), sharded_config(2));
  const auto first = graph.current_cut();
  EXPECT_FALSE(graph.cut_stale());
  // Quiet adopt: nothing published, nothing dirty — the SAME cut object
  // stays installed (pointer equality, no counter burn).
  EXPECT_EQ(graph.adopt(), first);
  EXPECT_EQ(graph.current_cut()->cut_id(), first->cut_id());

  ASSERT_TRUE(graph.add_edge(0, 17));
  // The op lives in some shard's unpublished overlay; the cut is only
  // stale once that shard PUBLISHES a version the cut does not contain.
  graph.shard(graph.owner(0)).publish();
  EXPECT_TRUE(graph.cut_stale());
  const auto second = graph.publish_all();
  EXPECT_GT(second->cut_id(), first->cut_id());
  EXPECT_FALSE(graph.cut_stale());
}

TEST(ShardedGraph, SnapshotIsolationAcrossAdoptions) {
  // A cut handed to a query stays frozen while newer cuts are adopted —
  // the sharded analogue of per-batch snapshot isolation.
  ShardedStreamingGraph graph(community(), sharded_config(2));
  const auto cut = graph.publish_all();
  const EdgeId degree_before = cut->degree(3);
  ASSERT_TRUE(graph.add_edge(3, 19));
  graph.publish_all();
  EXPECT_EQ(cut->degree(3), degree_before);  // old cut unchanged
  EXPECT_EQ(graph.current_cut()->degree(3), degree_before + 1);
}

TEST(CutAdopterTest, BackgroundThreadAdoptsPublishedVersions) {
  ShardedStreamingGraph graph(community(), sharded_config(2));
  CutAdopterPolicy policy;
  policy.poll_interval = 0.0005;
  CutAdopter adopter(graph, policy);
  const std::uint64_t before = graph.current_cut()->cut_id();
  ASSERT_TRUE(graph.add_edge(1, 22));
  for (int s = 0; s < graph.num_shards(); ++s) graph.shard(s).publish();
  // The adopter must fold the per-shard publishes into a new cut without
  // any publish_all() from us.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (graph.current_cut()->cut_id() == before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(graph.current_cut()->cut_id(), before);
  EXPECT_GE(adopter.adoptions(), 1);
  adopter.stop();
}

TEST(CutAdopterTest, RejectsNonPositivePollInterval) {
  ShardedStreamingGraph graph(community(), sharded_config(2));
  CutAdopterPolicy policy;
  policy.poll_interval = 0.0;
  EXPECT_THROW(CutAdopter(graph, policy), std::invalid_argument);
}

// ------------------------------------------------------------ update feed

TEST(ShardedUpdateGenerator, ReportMatchesFacadeCounters) {
  ShardedStreamingGraph graph(community(), sharded_config(2));
  UpdateGeneratorConfig config;
  config.operations = 400;
  config.num_threads = 2;
  config.publish_every = 64;
  config.vertex_add_fraction = 0.08;
  config.vertex_delete_fraction = 0.04;
  config.feature_update_fraction = 0.10;
  config.edge_delete_fraction = 0.15;
  config.seed = 23;
  UpdateGenerator generator(graph, config);
  const UpdateReport report = generator.run();
  const ShardedStats stats = graph.stats();
  EXPECT_EQ(report.operations, 400);
  EXPECT_EQ(report.accepted_edges, stats.ingested_edges);
  EXPECT_EQ(report.removed_edges, stats.removed_edges);
  EXPECT_EQ(report.feature_updates, stats.feature_updates);
  EXPECT_EQ(report.recycled_vertices, 0);
  EXPECT_GT(report.accepted_edges, 0);
  EXPECT_GT(report.publishes, 0);  // cut adoptions from the cadence
  EXPECT_FALSE(graph.cut_stale()); // final publish_all left nothing behind
  EXPECT_EQ(graph.dirty_rows(), 0);
}

TEST(ShardedUpdateGenerator, SameFeedSameCountersAsFlat) {
  // One generator config against a flat graph and 2-/3-shard facades:
  // the op mix and its RNG draws are shared code, so with one thread
  // every logical counter must agree across the stacks, for every
  // publish cadence (deletion targets come from the visible version,
  // so the cadence decides which retractions land).
  for (const std::uint64_t seed : {5ULL, 23ULL, 77ULL}) {
    for (const std::int64_t publish_every : {1, 16, 64}) {
      UpdateGeneratorConfig config;
      config.operations = 400;
      config.num_threads = 1;
      config.publish_every = publish_every;
      config.vertex_add_fraction = 0.08;
      config.vertex_delete_fraction = 0.04;
      config.feature_update_fraction = 0.10;
      config.edge_delete_fraction = 0.25;
      config.delete_recent_fraction = 0.5;
      config.seed = seed;

      StreamingConfig flat_config;
      flat_config.recycle_ids = false;  // the facade never recycles ids
      StreamingGraph flat(community(), flat_config);
      const UpdateReport expected = UpdateGenerator(flat, config).run();
      EXPECT_GT(expected.removed_edges, 0);
      EXPECT_GT(expected.removed_vertices, 0);
      for (const int shards : {2, 3}) {
        ShardedStreamingGraph graph(community(), sharded_config(shards));
        const UpdateReport got = UpdateGenerator(graph, config).run();
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " publish_every=" + std::to_string(publish_every) +
                     " shards=" + std::to_string(shards));
        EXPECT_EQ(got.accepted_edges, expected.accepted_edges);
        EXPECT_EQ(got.duplicate_edges, expected.duplicate_edges);
        EXPECT_EQ(got.removed_edges, expected.removed_edges);
        EXPECT_EQ(got.rejected_removals, expected.rejected_removals);
        EXPECT_EQ(got.added_vertices, expected.added_vertices);
        EXPECT_EQ(got.removed_vertices, expected.removed_vertices);
        EXPECT_EQ(got.feature_updates, expected.feature_updates);
      }
    }
  }
}

// ------------------------------------------------------------ serving tier

TEST(ShardedServing, ServerRoutesAndMatchesDirectForward) {
  const Dataset& ds = community();
  ShardedStreamingGraph graph(ds, sharded_config(2, ShardedConfig::Partitioner::kBfs));
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);
  ServingConfig config;
  config.num_workers = 2;
  auto backend = make_sharded_backend(graph, config);
  InferenceServer server(*backend, snapshot, config);
  EXPECT_STREQ(server.backend().name(), "sharded");

  // Full-neighborhood mode over the untouched base: logits must be
  // EXACTLY the direct computation on the dataset.
  const std::vector<VertexId> seeds = {1, 9, 33};
  const InferenceResult result = server.infer(seeds);
  const MiniBatch direct = sample_full(ds.graph, seeds, model.config().num_layers());
  FeatureLoader loader(ds.features);
  Tensor x;
  loader.load(direct, x);
  const Tensor expected = model.forward(direct, x);
  ASSERT_EQ(result.logits.rows(), static_cast<std::int64_t>(seeds.size()));
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (std::int64_t c = 0; c < expected.cols(); ++c) {
      EXPECT_DOUBLE_EQ(result.logits.at(static_cast<std::int64_t>(i), c),
                       expected.at(static_cast<std::int64_t>(i), c));
    }
  }
  EXPECT_GT(server.last_served_version(), 0u);  // cut id, not version id
}

TEST(ShardedServing, PerShardCachesAttachAndDetach) {
  const Dataset& ds = community();
  ShardedStreamingGraph graph(ds, sharded_config(2));
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);
  ServingConfig config;
  config.num_workers = 1;
  config.cache_capacity_rows = 16;
  config.transfer_precision = TransferPrecision::kInt8;
  {
    auto backend = make_sharded_backend(graph, config);
    InferenceServer server(*backend, snapshot, config);
    for (int s = 0; s < graph.num_shards(); ++s) {
      ASSERT_NE(server.shard_cache(s), nullptr) << "shard " << s;
    }
    EXPECT_EQ(server.cache(), nullptr);  // flat cache unused in sharded mode
    (void)server.infer({0, 5, 40});
    // Invalidation reaches the right shard's cache through the facade.
    std::vector<float> row(8, 2.0f);
    ASSERT_TRUE(graph.update_feature(0, row));
  }
  // Server gone: a feature update must not touch a dangling cache.
  std::vector<float> row(8, 3.0f);
  EXPECT_TRUE(graph.update_feature(1, row));
}

TEST(ShardedServing, TrafficRerankCadenceFiresWithoutFolds) {
  // Satellite: the re-rank cadence is TRAFFIC-driven — no compaction
  // fold ever runs here, yet the caches re-rank every N gathered rows.
  const Dataset& ds = community();
  ShardedStreamingGraph graph(ds, sharded_config(2));
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);
  ServingConfig config;
  config.num_workers = 1;
  config.cache_capacity_rows = 8;
  config.cache_rerank_every_rows = 32;
  auto backend = make_sharded_backend(graph, config);
  InferenceServer server(*backend, snapshot, config);
  for (int i = 0; i < 12; ++i) {
    (void)server.infer({static_cast<VertexId>(i), static_cast<VertexId>(i + 20)});
  }
  EXPECT_GT(server.traffic_reranks(), 0);
  std::int64_t cache_reranks = 0;
  for (int s = 0; s < graph.num_shards(); ++s) {
    cache_reranks += server.shard_cache(s)->reranks();
  }
  EXPECT_GT(cache_reranks, 0);
}

TEST(ShardedServing, StaticModeTrafficRerankUsesAccessCounters) {
  // The same cadence in STATIC mode: no StreamingGraph at all, the
  // server re-ranks its own cache from traffic counters + dataset
  // degrees.
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);
  ServingConfig config;
  config.num_workers = 1;
  config.cache_capacity_rows = 8;
  config.cache_rerank_every_rows = 24;
  auto backend = make_static_backend(ds, config);
  InferenceServer server(*backend, snapshot, config);
  for (int i = 0; i < 10; ++i) {
    (void)server.infer({static_cast<VertexId>(ds.graph.num_vertices() - 1 - i)});
  }
  EXPECT_GT(server.traffic_reranks(), 0);
  EXPECT_GT(server.cache()->reranks(), 0);
}

TEST(ShardedServing, SessionLifecycleRunsCleanly) {
  // HyScale::stream_sharded end to end: per-shard compactors +
  // publishers + the adopter, concurrent ingest and queries, clean
  // teardown in reverse dependency order.
  const Dataset& ds = community();
  HyScale system(ds, cpu_fpga_platform(2));
  system.train_epoch();
  ShardedConfig sharded = sharded_config(2);
  ServingConfig serving;
  serving.num_workers = 2;
  PublisherPolicy publisher;
  publisher.staleness_budget = 0.002;
  publisher.poll_floor = 0.001;
  CutAdopterPolicy adopter;
  adopter.poll_interval = 0.001;
  ServingSession session =
      system.stream_sharded(sharded, serving, CompactionPolicy{}, publisher, adopter);
  EXPECT_EQ(session.compactors.size(), 2u);
  EXPECT_EQ(session.publishers.size(), 2u);

  UpdateGeneratorConfig updates;
  updates.operations = 200;
  updates.num_threads = 2;
  updates.feature_update_fraction = 0.2;
  updates.seed = 5;
  UpdateGenerator generator(session.shards(), updates);
  UpdateReport update_report;
  std::thread ingest([&] { update_report = generator.run(); });
  for (int i = 0; i < 20; ++i) {
    const InferenceResult r = session.infer({static_cast<VertexId>(i % 60)});
    EXPECT_EQ(r.predictions.size(), 1u);
  }
  ingest.join();
  EXPECT_GT(update_report.accepted_edges, 0);
  EXPECT_EQ(session.shards().dirty_rows(), 0);  // final publish_all drained halos
}

}  // namespace
}  // namespace hyscale
