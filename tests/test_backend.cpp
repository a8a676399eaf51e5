// Backend-equivalence suite for the ServingBackend seam
// (src/serving/backend.hpp) plus live model hot-swap.
//
// Equivalence leg: every backend, served through the one
// InferenceServer constructor, must produce the same logits as a
// reference computed by a DIFFERENT code path:
//
//   * static — full-neighborhood logits equal a direct
//     sample_full + FeatureLoader + forward; sampled fp32 logits through
//     a device cache equal the flat streaming backend over the same,
//     unchurned dataset (NeighborSampler vs OverlaySampler, cache vs
//     feature-store gather);
//   * streaming — after churn (streamed-in vertices, inserts, a
//     retraction), full-neighborhood and sampled fp32 logits equal a
//     static backend over the Dataset rebuilt from scratch (the
//     stream-vs-rebuild contract of test_stream_differential);
//   * sharded — full-neighborhood fp32 and sampled int8-cached logits
//     equal the flat streaming backend fed the same ops (the
//     shard-vs-flat contract of test_shard_differential).
//
// Hot-swap leg: swap_model() under concurrent traffic must never tear
// a batch — every served result matches exactly one of the staged
// epochs' oracles (run under TSan via the sanitizer presets).
//
// Expiry leg: the backend is an ExpiryTarget, so ONE ExpirySweeper
// paces facade-wide TTL retirement in sharded mode (ROADMAP 1(d)) —
// bursts capped by max_retire_per_sweep, shard vertex spaces in
// lockstep afterwards.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
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

/// Exact reference: full-neighborhood sample + plain gather + forward.
Tensor direct_forward(GnnModel& model, const Dataset& ds, const std::vector<VertexId>& seeds) {
  const MiniBatch batch = sample_full(ds.graph, seeds, model.config().num_layers());
  FeatureLoader loader(ds.features);
  Tensor x;
  loader.load(batch, x);
  return model.forward(batch, x);
}

/// The seed sets every equivalence test serves; deliberately reuses
/// ids across sets so cache state diverging between the two paths
/// would show up as a logit diff at int8 wire precision.
std::vector<std::vector<VertexId>> probe_seed_sets(VertexId limit) {
  std::vector<std::vector<VertexId>> sets = {
      {0, 17, 40}, {5, 17, 63, 90}, {0, 40, 90}, {2}, {31, 32, 33, 64, 65}};
  for (auto& seeds : sets)
    for (VertexId& v : seeds) v %= limit;
  return sets;
}

/// Serves every probe set through `server` and returns the logits.
std::vector<Tensor> serve_probes(InferenceServer& server,
                                 const std::vector<std::vector<VertexId>>& sets) {
  std::vector<Tensor> logits;
  logits.reserve(sets.size());
  for (const auto& seeds : sets) logits.push_back(server.infer(seeds).logits);
  return logits;
}

void expect_bit_identical(const std::vector<Tensor>& actual,
                          const std::vector<Tensor>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i].rows(), expected[i].rows()) << "probe " << i;
    EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(actual[i], expected[i]), 0.0) << "probe " << i;
  }
}

/// Exact full-neighborhood fp32 serving.
ServingConfig exact_config() {
  ServingConfig config;
  config.num_workers = 2;
  return config;
}

/// Sampled fanouts through a half-graph device cache (hits AND misses).
ServingConfig sampled_config(TransferPrecision precision) {
  ServingConfig config;
  config.num_workers = 2;
  config.fanouts = {4, 3};
  config.cache_capacity_rows = 48;
  config.transfer_precision = precision;
  return config;
}

// ----------------------------------------------------- equivalence: static

TEST(BackendEquivalence, StaticMatchesIndependentReferences) {
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);
  const auto sets = probe_seed_sets(ds.graph.num_vertices());

  {
    const ServingConfig config = exact_config();
    auto backend = make_static_backend(ds, config);
    InferenceServer server(*backend, snapshot, config);
    EXPECT_STREQ(server.backend().name(), "static");
    std::vector<Tensor> expected;
    for (const auto& seeds : sets) expected.push_back(direct_forward(model, ds, seeds));
    expect_bit_identical(serve_probes(server, sets), expected);
  }

  const ServingConfig config = sampled_config(TransferPrecision::kFp32);
  StreamingGraph unchurned(ds, {});
  auto reference_backend = make_streaming_backend(unchurned, config);
  InferenceServer reference(*reference_backend, snapshot, config);
  auto backend = make_static_backend(ds, config);
  InferenceServer server(*backend, snapshot, config);
  expect_bit_identical(serve_probes(server, sets), serve_probes(reference, sets));
}

// -------------------------------------------------- equivalence: streaming

constexpr float kStreamedRowValue = 0.25f;

/// A deterministic splash of churn: streamed-in vertices wired into the
/// topology, edge inserts across communities, and a retraction — then a
/// publish so queries can see it.
void churn_and_publish(StreamingGraph& graph) {
  const std::vector<float> row(8, kStreamedRowValue);
  const VertexId a = graph.add_vertex(row);
  const VertexId b = graph.add_vertex(row);
  ASSERT_TRUE(graph.add_edge(a, 0));
  ASSERT_TRUE(graph.add_edge(b, 33));
  ASSERT_TRUE(graph.add_edge(a, b));
  ASSERT_TRUE(graph.add_edge(5, 70));
  ASSERT_TRUE(graph.remove_edge(a, 0));
  graph.publish();
}

/// churn_and_publish's net effect as a from-scratch Dataset: the base
/// edges plus the surviving inserts, and the two streamed-in rows.
Dataset rebuilt_after_churn(const Dataset& ds) {
  const VertexId a = ds.graph.num_vertices();
  const VertexId b = a + 1;
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 0; v < a; ++v) {
    for (VertexId u : ds.graph.neighbors(v)) edges.emplace_back(v, u);
  }
  edges.insert(edges.end(), {{b, 33}, {a, b}, {5, 70}});  // (a, 0) was retracted
  Dataset rebuilt = ds;
  rebuilt.graph = build_csr(b + 1, std::move(edges));  // symmetrize + sort + dedup
  rebuilt.features = Tensor(b + 1, ds.features.cols(), kStreamedRowValue);
  for (VertexId v = 0; v < a; ++v) {
    const auto src = ds.features.row(v);
    std::copy(src.begin(), src.end(), rebuilt.features.row(v).begin());
  }
  return rebuilt;
}

TEST(BackendEquivalence, StreamingMatchesStaticOverRebuild) {
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);
  const Dataset rebuilt = rebuilt_after_churn(ds);

  for (const ServingConfig& config :
       {exact_config(), sampled_config(TransferPrecision::kFp32)}) {
    StreamingGraph graph(ds, {});
    churn_and_publish(graph);
    ASSERT_EQ(graph.current()->num_vertices(), rebuilt.graph.num_vertices());
    const auto sets = probe_seed_sets(rebuilt.graph.num_vertices());

    auto reference_backend = make_static_backend(rebuilt, config);
    InferenceServer reference(*reference_backend, snapshot, config);
    auto backend = make_streaming_backend(graph, config);
    InferenceServer server(*backend, snapshot, config);
    EXPECT_STREQ(server.backend().name(), "streaming");
    expect_bit_identical(serve_probes(server, sets), serve_probes(reference, sets));
    EXPECT_GT(server.last_served_version(), 0u);
  }
}

// ---------------------------------------------------- equivalence: sharded

TEST(BackendEquivalence, ShardedMatchesFlatStreaming) {
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);

  for (const ServingConfig& config :
       {exact_config(), sampled_config(TransferPrecision::kInt8)}) {
    // The same ops on both graphs; no deletions, so the flat graph's
    // id recycling cannot misalign the vertex spaces.
    ShardedConfig sharded_config;
    sharded_config.num_shards = 3;
    ShardedStreamingGraph sharded(ds, sharded_config);
    StreamingGraph flat(ds, {});
    const std::vector<float> row(8, kStreamedRowValue);
    ASSERT_EQ(sharded.add_vertex(row), flat.add_vertex(row));
    const VertexId a = ds.graph.num_vertices();
    ASSERT_TRUE(sharded.add_edge(a, 0));
    ASSERT_TRUE(flat.add_edge(a, 0));
    ASSERT_TRUE(sharded.add_edge(7, 64));
    ASSERT_TRUE(flat.add_edge(7, 64));
    sharded.publish_all();
    flat.publish();
    const auto sets = probe_seed_sets(sharded.current_cut()->num_vertices());

    auto reference_backend = make_streaming_backend(flat, config);
    InferenceServer reference(*reference_backend, snapshot, config);
    auto backend = make_sharded_backend(sharded, config);
    InferenceServer server(*backend, snapshot, config);
    EXPECT_STREQ(server.backend().name(), "sharded");
    expect_bit_identical(serve_probes(server, sets), serve_probes(reference, sets));
  }
}

// ------------------------------------------------------- journal labelling

TEST(BackendSeam, ServingStartJournalsBackendLabel) {
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);

  StreamingGraph graph(ds, {});
  ShardedConfig sharded_config;
  sharded_config.num_shards = 2;
  ShardedStreamingGraph sharded(ds, sharded_config);
  sharded.publish_all();

  const auto start_detail = [&](const auto& make_backend) {
    Telemetry telemetry;
    ServingConfig config;
    config.num_workers = 1;
    config.telemetry = &telemetry;
    auto backend = make_backend(config);
    InferenceServer server(*backend, snapshot, config);
    for (const JournalEvent& event : telemetry.journal().events()) {
      if (event.kind == "serving_start") return event.detail;
    }
    return std::string();
  };
  EXPECT_NE(start_detail([&](const ServingConfig& c) { return make_static_backend(ds, c); })
                .find("backend=static"),
            std::string::npos);
  EXPECT_NE(
      start_detail([&](const ServingConfig& c) { return make_streaming_backend(graph, c); })
          .find("backend=streaming"),
      std::string::npos);
  EXPECT_NE(
      start_detail([&](const ServingConfig& c) { return make_sharded_backend(sharded, c); })
          .find("backend=sharded"),
      std::string::npos);
}

// ------------------------------------------------------------ model swap

TEST(ModelHotSwap, NextBatchServesTheNewEpoch) {
  const Dataset& ds = community();
  GnnModel model_a(small_model_config());
  ModelConfig config_b = small_model_config();
  config_b.seed = 97;  // same architecture, different weights
  GnnModel model_b(config_b);

  ServingConfig config;  // full neighborhood: exact, oracle-comparable
  config.num_workers = 2;
  auto backend = make_static_backend(ds, config);
  InferenceServer server(*backend, ModelSnapshot(model_a), config);
  EXPECT_EQ(server.model_epoch(), 1u);

  const std::vector<VertexId> seeds = {0, 17, 40, 95};
  EXPECT_DOUBLE_EQ(
      Tensor::max_abs_diff(server.infer(seeds).logits, direct_forward(model_a, ds, seeds)),
      0.0);

  EXPECT_EQ(server.swap_model(ModelSnapshot(model_b)), 2u);
  EXPECT_EQ(server.model_epoch(), 2u);
  EXPECT_DOUBLE_EQ(
      Tensor::max_abs_diff(server.infer(seeds).logits, direct_forward(model_b, ds, seeds)),
      0.0);

  // Swaps stack: back to A's weights at epoch 3.
  EXPECT_EQ(server.swap_model(ModelSnapshot(model_a)), 3u);
  EXPECT_DOUBLE_EQ(
      Tensor::max_abs_diff(server.infer(seeds).logits, direct_forward(model_a, ds, seeds)),
      0.0);
}

TEST(ModelHotSwap, RejectsMismatchedArchitecture) {
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  auto backend = make_static_backend(ds, {});
  InferenceServer server(*backend, ModelSnapshot(model), {});

  ModelConfig wrong_classes = small_model_config();
  wrong_classes.dims = {8, 16, 4};
  GnnModel more_classes(wrong_classes);
  EXPECT_THROW(server.swap_model(ModelSnapshot(more_classes)), std::invalid_argument);

  ModelConfig wrong_depth = small_model_config();
  wrong_depth.dims = {8, 12, 16, 3};
  GnnModel deeper(wrong_depth);
  EXPECT_THROW(server.swap_model(ModelSnapshot(deeper)), std::invalid_argument);

  EXPECT_EQ(server.model_epoch(), 1u);  // failed swaps do not bump the epoch
}

TEST(ModelHotSwap, ConcurrentTrafficNeverTearsABatch) {
  // Hammer the server from client threads while the main thread swaps
  // epochs A -> B -> A -> ...  Full-neighborhood mode is exact, so
  // every result must be BITWISE one of the two oracles — a batch that
  // mixed weights mid-flight would match neither.  (The interesting
  // data race — workers re-reading the staged snapshot while swaps
  // publish it — is what the TSan preset checks.)
  const Dataset& ds = community();
  GnnModel model_a(small_model_config());
  ModelConfig config_b = small_model_config();
  config_b.seed = 97;
  GnnModel model_b(config_b);

  const std::vector<std::vector<VertexId>> sets = probe_seed_sets(ds.graph.num_vertices());
  std::vector<Tensor> oracle_a, oracle_b;
  for (const auto& seeds : sets) {
    oracle_a.push_back(direct_forward(model_a, ds, seeds));
    oracle_b.push_back(direct_forward(model_b, ds, seeds));
  }

  ServingConfig config;
  config.num_workers = 3;
  // One request per micro-batch: coalescing merges computation graphs
  // and shifts float rounding ~1e-7, which would drown the bitwise
  // oracle check this test is actually about.
  config.batch.max_batch_requests = 1;
  auto backend = make_static_backend(ds, config);
  InferenceServer server(*backend, ModelSnapshot(model_a), config);

  std::atomic<int> torn{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 40; ++i) {
        const std::size_t probe = static_cast<std::size_t>(t + i) % sets.size();
        const Tensor logits = server.infer(sets[probe]).logits;
        const bool is_a = Tensor::max_abs_diff(logits, oracle_a[probe]) == 0.0;
        const bool is_b = Tensor::max_abs_diff(logits, oracle_b[probe]) == 0.0;
        if (!is_a && !is_b) torn.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int swap = 0; swap < 16; ++swap) {
    server.swap_model(ModelSnapshot(swap % 2 == 0 ? model_b : model_a));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& client : clients) client.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(server.model_epoch(), 17u);  // construction epoch + 16 swaps
}

// ------------------------------------------------- sharded TTL via backend

TEST(ShardedExpiry, BackendSweeperRetiresFacadeWideWithPacing) {
  // ROADMAP 1(d): TTL expiry in sharded mode used to be caller-paced
  // because a per-shard sweeper would let vertex spaces drift.  The
  // backend seam closes it — the ShardedBackend forwards sweep_expired
  // to the facade's broadcast retirement, so ONE sweeper serves the
  // whole deployment.
  const Dataset& ds = community();
  ShardedConfig sharded_config;
  sharded_config.num_shards = 3;
  ShardedStreamingGraph sharded(ds, sharded_config);

  const std::vector<float> row(8, 0.5f);
  constexpr int kStreamedIn = 6;
  for (int i = 0; i < kStreamedIn; ++i) sharded.add_vertex(row);
  sharded.publish_all();
  const VertexId base = ds.graph.num_vertices();
  const VertexId grown = sharded.num_vertices();
  ASSERT_EQ(grown, base + kStreamedIn);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));  // let them go idle

  ServingConfig serving;
  serving.num_workers = 1;
  auto backend = make_sharded_backend(sharded, serving);
  EXPECT_STREQ(backend->expiry_scope(), "sharded");

  ExpiryPolicy policy;
  policy.ttl = 0.0;  // everything idle at sweep time expires
  policy.sweep_interval = 1e-3;
  policy.max_retire_per_sweep = 2;  // force pacing across passes
  policy.pending_op_budget = 0;
  ExpirySweeper sweeper(*backend, policy);

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (sweeper.retired() < kStreamedIn && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sweeper.stop();

  EXPECT_EQ(sweeper.retired(), kStreamedIn);
  // Pacing: 6 retirements at <= 2 per pass is at least 3 passes.
  EXPECT_GE(sweeper.sweeps(), 3);
  EXPECT_EQ(sharded.stats().expired_vertices, kStreamedIn);

  // Broadcast retirement kept every shard's vertex space in lockstep,
  // and the next cut sees the retirees dead.
  for (int s = 0; s < sharded.num_shards(); ++s) {
    EXPECT_EQ(sharded.shard(s).num_vertices(), grown) << "shard " << s;
  }
  const auto cut = sharded.publish_all();
  for (VertexId v = base; v < grown; ++v) EXPECT_FALSE(cut->alive(v)) << "vertex " << v;
}

}  // namespace
}  // namespace hyscale
