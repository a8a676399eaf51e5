// Tests for the online inference serving subsystem (src/serving/):
// micro-batch coalescing and deadlines, bounded-queue backpressure,
// served-vs-direct logit equivalence, determinism under a fixed seed,
// checkpoint -> ModelSnapshot round-trips, stats() read back from the
// serving.* registry instruments, and concurrent use of the shared
// StaticFeatureCache.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>
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

/// Exact reference: full-neighborhood sample + plain gather + forward.
Tensor direct_forward(GnnModel& model, const Dataset& ds, const std::vector<VertexId>& seeds) {
  const MiniBatch batch = sample_full(ds.graph, seeds, model.config().num_layers());
  FeatureLoader loader(ds.features);
  Tensor x;
  loader.load(batch, x);
  return model.forward(batch, x);
}

InferenceRequest make_request(std::vector<VertexId> seeds) {
  InferenceRequest request;
  request.seeds = std::move(seeds);
  request.enqueue_time = std::chrono::steady_clock::now();
  return request;
}

// ---------------------------------------------------------------- batcher

TEST(DynamicBatcher, BoundedQueueRejectsWhenFull) {
  BatchPolicy policy;
  policy.queue_capacity = 2;
  policy.max_wait = 0.0;
  DynamicBatcher batcher(policy);
  EXPECT_TRUE(batcher.submit(make_request({0})));
  EXPECT_TRUE(batcher.submit(make_request({1})));
  EXPECT_FALSE(batcher.submit(make_request({2})));  // full
  EXPECT_EQ(batcher.depth(), 2u);

  // Draining one batch frees capacity again.
  std::vector<InferenceRequest> batch;
  ASSERT_TRUE(batcher.next_batch(batch));
  EXPECT_TRUE(batcher.submit(make_request({2})));
  batcher.shutdown();
  EXPECT_FALSE(batcher.submit(make_request({3})));  // stopped
}

TEST(DynamicBatcher, CoalescesUpToRequestLimit) {
  BatchPolicy policy;
  policy.max_batch_requests = 3;
  policy.max_wait = 10.0;  // never the trigger here
  DynamicBatcher batcher(policy);
  for (VertexId v = 0; v < 6; ++v) ASSERT_TRUE(batcher.submit(make_request({v})));

  std::vector<InferenceRequest> batch;
  ASSERT_TRUE(batcher.next_batch(batch));
  EXPECT_EQ(batch.size(), 3u);  // closed by the request limit, not the deadline
  ASSERT_TRUE(batcher.next_batch(batch));
  EXPECT_EQ(batch.size(), 3u);
  batcher.shutdown();
  EXPECT_FALSE(batcher.next_batch(batch));
}

TEST(DynamicBatcher, DeadlineDispatchesPartialBatch) {
  BatchPolicy policy;
  policy.max_batch_requests = 64;
  policy.max_wait = 0.02;  // 20ms
  DynamicBatcher batcher(policy);
  ASSERT_TRUE(batcher.submit(make_request({0, 1})));

  std::vector<InferenceRequest> batch;
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(batcher.next_batch(batch));
  const Seconds waited = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(batch.size(), 1u);   // partial batch, released by the deadline
  EXPECT_LT(waited, 5.0);        // and nowhere near "wait forever"
  batcher.shutdown();
}

TEST(DynamicBatcher, SeedBudgetClosesBatchAndOversizedRequestStillServed) {
  BatchPolicy policy;
  policy.max_batch_requests = 64;
  policy.max_batch_seeds = 4;
  policy.max_wait = 10.0;
  DynamicBatcher batcher(policy);
  ASSERT_TRUE(batcher.submit(make_request({0, 1, 2})));
  ASSERT_TRUE(batcher.submit(make_request({3, 4, 5})));
  ASSERT_TRUE(batcher.submit(make_request({6, 7, 8, 9, 10, 11})));  // > max alone

  // The budget is a ceiling: adding the second 3-seed request would
  // exceed 4, so each closes its own batch; the 6-seed request exceeds
  // the budget alone and must still be served (batches never wedge).
  std::vector<InferenceRequest> batch;
  ASSERT_TRUE(batcher.next_batch(batch));
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.front().seeds.size(), 3u);
  ASSERT_TRUE(batcher.next_batch(batch));
  EXPECT_EQ(batch.size(), 1u);
  ASSERT_TRUE(batcher.next_batch(batch));
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.front().seeds.size(), 6u);
  batcher.shutdown();
}

TEST(DynamicBatcher, ShutdownDrainsAcceptedRequests) {
  BatchPolicy policy;
  policy.max_batch_requests = 2;
  policy.max_wait = 10.0;
  DynamicBatcher batcher(policy);
  for (VertexId v = 0; v < 3; ++v) ASSERT_TRUE(batcher.submit(make_request({v})));
  batcher.shutdown();
  std::vector<InferenceRequest> batch;
  std::size_t drained = 0;
  while (batcher.next_batch(batch)) drained += batch.size();
  EXPECT_EQ(drained, 3u);  // nothing accepted is ever dropped
}

// ----------------------------------------------------------------- server

TEST(InferenceServer, ServedLogitsMatchDirectForward) {
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);

  ServingConfig config;  // empty fanouts = full neighborhood (exact)
  config.num_workers = 2;
  auto backend = make_static_backend(ds, config);
  InferenceServer server(*backend, snapshot, config);

  const std::vector<VertexId> seeds = {0, 17, 40, 95};
  const InferenceResult result = server.infer(seeds);
  const Tensor expected = direct_forward(model, ds, seeds);
  ASSERT_EQ(result.logits.rows(), expected.rows());
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(result.logits, expected), 0.0);
  ASSERT_EQ(result.predictions.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    int best = 0;
    for (std::int64_t c = 1; c < expected.cols(); ++c) {
      if (expected.at(static_cast<std::int64_t>(i), c) >
          expected.at(static_cast<std::int64_t>(i), best))
        best = static_cast<int>(c);
    }
    EXPECT_EQ(result.predictions[i], best);
  }
}

TEST(InferenceServer, CoalescesConcurrentRequestsIntoOneMicroBatch) {
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);

  ServingConfig config;
  config.num_workers = 1;
  config.batch.max_batch_requests = 4;
  config.batch.max_wait = 0.5;  // generous: submissions land well inside it
  auto backend = make_static_backend(ds, config);
  InferenceServer server(*backend, snapshot, config);

  std::vector<std::future<InferenceResult>> futures;
  for (VertexId v = 0; v < 4; ++v) {
    auto f = server.try_submit({v, v + 4});
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  std::vector<InferenceResult> results;
  for (auto& f : futures) results.push_back(f.get());
  for (const auto& r : results) {
    EXPECT_EQ(r.batch_id, results.front().batch_id);
    EXPECT_EQ(r.batch_requests, 4);
    EXPECT_EQ(r.batch_seeds, 8);
  }
  const ServingSnapshot stats = server.stats();
  EXPECT_EQ(stats.completed_requests, 4);
  EXPECT_EQ(stats.completed_batches, 1);
  EXPECT_DOUBLE_EQ(stats.mean_batch_requests, 4.0);
}

TEST(InferenceServer, RespectsDeadlineForLonelyRequest) {
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);

  ServingConfig config;
  config.num_workers = 1;
  config.batch.max_batch_requests = 64;  // never filled by one request
  config.batch.max_wait = 0.02;
  auto backend = make_static_backend(ds, config);
  InferenceServer server(*backend, snapshot, config);

  const InferenceResult result = server.infer({3});
  EXPECT_EQ(result.batch_requests, 1);
  EXPECT_GE(result.latency, 0.0);
  EXPECT_LT(result.latency, 5.0);
}

TEST(InferenceServer, BackpressureRejectsAndRecovers) {
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);

  ServingConfig config;
  config.num_workers = 1;
  config.batch.max_batch_requests = 1;
  config.batch.max_wait = 0.0;
  config.batch.queue_capacity = 1;
  auto backend = make_static_backend(ds, config);
  InferenceServer server(*backend, snapshot, config);

  std::vector<std::future<InferenceResult>> accepted;
  std::int64_t rejected = 0;
  for (int i = 0; i < 500 && rejected < 5; ++i) {
    auto f = server.try_submit({static_cast<VertexId>(i % ds.graph.num_vertices())});
    if (f) {
      accepted.push_back(std::move(*f));
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);  // a 1-deep queue must push back on a tight loop
  for (auto& f : accepted) f.get();  // accepted requests all complete
  const ServingSnapshot stats = server.stats();
  EXPECT_EQ(stats.rejected_requests, rejected);
  EXPECT_EQ(stats.completed_requests, static_cast<std::int64_t>(accepted.size()));
}

TEST(InferenceServer, SampledFanoutsAreDeterministicUnderFixedSeed) {
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);

  ServingConfig config;
  config.fanouts = {3, 3};
  config.seed = 99;
  config.num_workers = 2;  // determinism must not depend on which worker serves
  const std::vector<VertexId> seeds = {5, 44, 80};

  auto backend_a = make_static_backend(ds, config);
  InferenceServer server_a(*backend_a, snapshot, config);
  const Tensor first = server_a.infer(seeds).logits;
  const Tensor again = server_a.infer(seeds).logits;  // same server, later batch
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(first, again), 0.0);

  auto backend_b = make_static_backend(ds, config);
  InferenceServer server_b(*backend_b, snapshot, config);  // fresh server, same seed
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(first, server_b.infer(seeds).logits), 0.0);
}

TEST(InferenceServer, InvalidSubmissionsThrow) {
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);
  auto backend = make_static_backend(ds, {});
  InferenceServer server(*backend, snapshot, {});
  EXPECT_THROW(server.try_submit({}), std::invalid_argument);
  EXPECT_THROW(server.try_submit({ds.graph.num_vertices()}), std::invalid_argument);
  EXPECT_THROW(server.try_submit({-1}), std::invalid_argument);

  ServingConfig bad;
  bad.fanouts = {3};  // model has 2 layers
  auto bad_backend = make_static_backend(ds, bad);
  EXPECT_THROW(InferenceServer(*bad_backend, snapshot, bad), std::invalid_argument);
}

TEST(InferenceServer, CachedGathersMatchUncachedAndReportTraffic) {
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);

  ServingConfig cached;
  cached.cache_capacity_rows = ds.graph.num_vertices() / 4;
  auto cached_backend = make_static_backend(ds, cached);
  auto plain_backend = make_static_backend(ds, {});
  InferenceServer cached_server(*cached_backend, snapshot, cached);
  InferenceServer plain_server(*plain_backend, snapshot, {});

  const std::vector<VertexId> seeds = {2, 31, 64, 90};
  const Tensor a = cached_server.infer(seeds).logits;
  const Tensor b = plain_server.infer(seeds).logits;
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(a, b), 0.0);

  const ServingSnapshot stats = cached_server.stats();
  EXPECT_GT(stats.cache_hits + stats.cache_misses, 0);
  EXPECT_GT(stats.cache_hit_rate, 0.0);  // degree-ordered cache must hit some
  EXPECT_GT(stats.host_bytes + stats.device_bytes, 0.0);
}

// ------------------------------------------------------------------ stats

TEST(InferenceServer, StatsCountExactlyAndSplitQueueWaitWithTelemetryOff) {
  // Telemetry off: the server records into a registry it owns, and
  // stats() reads the counts back exactly.
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);

  ServingConfig config;
  config.num_workers = 2;
  config.batch.max_batch_requests = 3;
  config.batch.max_wait = 1e-3;
  config.cache_capacity_rows = ds.graph.num_vertices() / 4;
  auto backend = make_static_backend(ds, config);
  InferenceServer server(*backend, snapshot, config);

  constexpr int kRequests = 24;
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < kRequests; ++i) {
    auto f = server.try_submit({static_cast<VertexId>(i), static_cast<VertexId>(i + 40)});
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  std::set<std::uint64_t> batch_ids;
  std::int64_t min_batch = kRequests;
  std::int64_t max_batch = 0;
  for (auto& f : futures) {
    const InferenceResult r = f.get();
    batch_ids.insert(r.batch_id);
    min_batch = std::min(min_batch, r.batch_requests);
    max_batch = std::max(max_batch, r.batch_requests);
  }

  const ServingSnapshot stats = server.stats();
  EXPECT_EQ(stats.completed_requests, kRequests);
  EXPECT_EQ(stats.rejected_requests, 0);
  EXPECT_EQ(stats.completed_batches, static_cast<std::int64_t>(batch_ids.size()));
  EXPECT_DOUBLE_EQ(stats.mean_batch_requests,
                   static_cast<double>(kRequests) / static_cast<double>(batch_ids.size()));
  EXPECT_EQ(stats.min_batch_requests, min_batch);
  EXPECT_EQ(stats.max_batch_requests, max_batch);
  EXPECT_GT(stats.cache_hits + stats.cache_misses, 0);
  EXPECT_GT(stats.qps, 0.0);

  // Compute is what the latency leaves after the queue wait.
  EXPECT_GT(stats.latency_mean, 0.0);
  EXPECT_GE(stats.latency_mean, stats.queue_wait_mean);
  EXPECT_DOUBLE_EQ(stats.compute_mean, stats.latency_mean - stats.queue_wait_mean);
  EXPECT_LE(stats.latency_p50, stats.latency_p99);
  EXPECT_LE(stats.latency_p99, stats.latency_max);
  EXPECT_LE(stats.queue_wait_p50, stats.queue_wait_p99);
  EXPECT_LE(stats.queue_wait_p99, stats.queue_wait_max);
}

TEST(InferenceServer, StatsPercentilesAreTheRegistryPercentiles) {
  // One accounting path: with telemetry bound, stats() (what the CLI
  // prints) and every registry export report the same percentiles.
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);

  Telemetry telemetry;
  ServingConfig config;
  config.num_workers = 2;
  config.telemetry = &telemetry;
  auto backend = make_static_backend(ds, config);
  InferenceServer server(*backend, snapshot, config);

  constexpr int kRequests = 32;
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < kRequests; ++i) {
    auto f = server.try_submit({static_cast<VertexId>((i * 7) % ds.graph.num_vertices())});
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  for (auto& f : futures) f.get();

  const ServingSnapshot stats = server.stats();
  const MetricsSnapshot registry = telemetry.registry().snapshot();
  EXPECT_EQ(stats.completed_requests, kRequests);
  EXPECT_EQ(registry.value("serving.requests_completed"), kRequests);
  EXPECT_DOUBLE_EQ(stats.latency_p50, registry.percentile_ms("serving.latency_ms", 0.50) * 1e-3);
  EXPECT_DOUBLE_EQ(stats.latency_p99, registry.percentile_ms("serving.latency_ms", 0.99) * 1e-3);
  EXPECT_DOUBLE_EQ(stats.queue_wait_p50,
                   registry.percentile_ms("serving.queue_wait_ms", 0.50) * 1e-3);
  EXPECT_DOUBLE_EQ(stats.queue_wait_p99,
                   registry.percentile_ms("serving.queue_wait_ms", 0.99) * 1e-3);
  EXPECT_DOUBLE_EQ(stats.latency_max, registry.histogram("serving.latency_ms")->max_ms * 1e-3);
}

// ------------------------------------------------- checkpoint round-trip

TEST(ModelSnapshot, CheckpointRoundTripServesIdenticalLogits) {
  MaterializeOptions options;
  options.target_vertices = 1 << 10;
  const Dataset ds = materialize_dataset("ogbn-products", options);

  HybridTrainerConfig train_config;
  train_config.fanouts = {5, 5};
  train_config.real_batch_total = 64;
  train_config.real_iterations_cap = 2;
  HybridTrainer trainer(ds, cpu_fpga_platform(2), train_config);
  trainer.train_epoch();  // real compute moves the weights off their init

  const std::string path = "/tmp/hyscale_serving_ckpt.bin";
  save_checkpoint(trainer.model(), path);
  const ModelSnapshot snapshot(trainer.model().config(), path);
  std::remove(path.c_str());

  auto backend = make_static_backend(ds, {});
  InferenceServer server(*backend, snapshot, {});
  const std::vector<VertexId> seeds = {1, 7, 100, 555};
  const Tensor served = server.infer(seeds).logits;
  const Tensor expected = direct_forward(trainer.model(), ds, seeds);
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(served, expected), 0.0);
}

TEST(ModelSnapshot, MissingCheckpointThrows) {
  EXPECT_THROW(ModelSnapshot(small_model_config(), "/tmp/definitely_missing_ckpt.bin"),
               std::runtime_error);
}

// ------------------------------------------------------- cache under load

TEST(StaticFeatureCache, ConcurrentLoadsKeepTotalsConsistent) {
  const Dataset& ds = community();
  NeighborSampler sampler(ds.graph, {3, 3}, 4);
  const MiniBatch batch = sampler.sample({0, 10, 20, 30});
  StaticFeatureCache cache(ds.graph, ds.features, ds.graph.num_vertices() / 2);

  const StaticFeatureCache::LoadStats one = [&] {
    Tensor x;
    return cache.load(batch, x);
  }();
  const std::int64_t rows_per_load = one.hits + one.misses;

  constexpr int kThreads = 4;
  constexpr int kLoads = 64;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Tensor x;  // per-caller output, per the API contract
      for (int i = 0; i < kLoads; ++i) cache.load(batch, x);
    });
  }
  for (auto& t : threads) t.join();

  const auto totals = cache.totals();
  EXPECT_EQ(totals.hits + totals.misses, rows_per_load * (kThreads * kLoads + 1));
  EXPECT_EQ(totals.hits, one.hits * (kThreads * kLoads + 1));
}

// ------------------------------------------------------------ end to end

TEST(LoadGenerator, ClosedLoopSessionCompletesAllRequests) {
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);

  ServingConfig config;
  config.fanouts = {3, 3};
  config.num_workers = 2;
  config.batch.max_wait = 1e-3;
  config.cache_capacity_rows = 24;
  auto backend = make_static_backend(ds, config);
  InferenceServer server(*backend, snapshot, config);

  LoadGeneratorConfig load;
  load.num_clients = 3;
  load.requests_per_client = 20;
  load.seeds_per_request = 2;
  LoadGenerator generator(server, ds, load);
  const LoadReport report = generator.run();

  EXPECT_EQ(report.completed_requests, 60);
  EXPECT_GT(report.qps, 0.0);
  EXPECT_GT(report.wall_time, 0.0);
  EXPECT_EQ(report.server.completed_requests, 60);
  EXPECT_GT(report.server.latency_p99, 0.0);
  EXPECT_GE(report.server.latency_p99, report.server.latency_p50);
  EXPECT_GE(report.server.max_batch_requests, 1);
  EXPECT_FALSE(report.to_string().empty());
}

TEST(HyScaleFacade, TrainThenServe) {
  MaterializeOptions options;
  options.target_vertices = 1 << 10;
  const Dataset ds = materialize_dataset("ogbn-products", options);

  HybridTrainerConfig train_config;
  train_config.fanouts = {5, 5};
  train_config.real_batch_total = 64;
  train_config.real_iterations_cap = 2;
  HyScale system(ds, cpu_fpga_platform(2), train_config);
  system.train_epoch();

  ServingConfig serving;
  serving.fanouts = {5, 5};
  serving.cache_capacity_rows = 128;
  ServingSession session = system.serve(serving);
  EXPECT_STREQ(session.backend->name(), "static");
  EXPECT_EQ(session.graph, nullptr);
  EXPECT_EQ(session.sharded, nullptr);
  const InferenceResult result = session.infer({0, 42});
  EXPECT_EQ(result.logits.rows(), 2);
  EXPECT_EQ(result.logits.cols(), ds.info.f2);
  EXPECT_EQ(result.predictions.size(), 2u);
}

}  // namespace
}  // namespace hyscale
