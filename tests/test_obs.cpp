// Tests for the telemetry plane (src/obs/): registry determinism and
// thread-safety, fixed-bucket histogram percentiles, callback-gauge
// freeze-on-detach, trace-ring wraparound and seqlock consistency
// under concurrent writers, end-to-end stage reconstruction for a
// served request (queue -> sample -> gather -> forward -> reply) and a
// compaction fold (CUT -> BUILD -> REBASE), the lifecycle journal's
// bounded ring, and the JSON-lines exporter — including a snapshot
// taken while a fold is parked in flight.
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
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

// --------------------------------------------------------------- registry

TEST(MetricsRegistry, SnapshotReportsInstrumentsInRegistrationOrder) {
  MetricsRegistry registry;
  registry.counter("b.count").add(2);
  registry.gauge("a.gauge").set(1.5);
  registry.counter("c.count").add(3);
  registry.histogram("d.hist").observe_ms(1.0);

  const MetricsSnapshot snap = registry.snapshot();
  std::vector<std::string> names;
  for (const auto& [name, value] : snap.scalars()) names.push_back(name);
  // Registration order, NOT lexicographic: two runs of the same binary
  // wire instruments in the same order, so records diff cleanly.
  EXPECT_EQ(names, (std::vector<std::string>{"b.count", "a.gauge", "c.count"}));
  EXPECT_DOUBLE_EQ(snap.value("b.count"), 2.0);
  EXPECT_DOUBLE_EQ(snap.value("a.gauge"), 1.5);
  ASSERT_EQ(snap.histograms().size(), 1u);
  EXPECT_EQ(snap.histograms()[0].name, "d.hist");
}

TEST(MetricsRegistry, LookupReturnsSameInstrumentAndKindMismatchThrows) {
  MetricsRegistry registry;
  Counter& c1 = registry.counter("x");
  Counter& c2 = registry.counter("x");
  EXPECT_EQ(&c1, &c2);
  EXPECT_THROW(registry.gauge("x"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("x"), std::invalid_argument);
}

TEST(MetricsSnapshot, UnknownScalarThrowsInsteadOfReturningZero) {
  MetricsRegistry registry;
  registry.counter("known").add(1);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_TRUE(snap.has("known"));
  EXPECT_FALSE(snap.has("typo"));
  EXPECT_THROW(snap.value("typo"), std::out_of_range);
  EXPECT_THROW(snap.percentile_ms("typo", 0.5), std::out_of_range);
  EXPECT_EQ(snap.histogram("typo"), nullptr);
}

TEST(MetricsRegistry, ConcurrentCounterIncrementsAreExact) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("hits");
  constexpr int kThreads = 8;
  constexpr std::int64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::int64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  // Snapshot concurrently with the writers: must never block or tear
  // (each read is a relaxed per-shard sum).
  for (int i = 0; i < 50; ++i) (void)registry.snapshot();
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(registry.snapshot().value("hits"),
                   static_cast<double>(kThreads * kPerThread));
}

TEST(Histogram, PercentilesInterpolateWithinBucketResolution) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("lat");
  for (int i = 1; i <= 1000; ++i) h.observe_ms(static_cast<double>(i) * 0.01);  // 0.01..10 ms
  const MetricsSnapshot snap = registry.snapshot();
  const MetricsSnapshot::HistogramView* view = snap.histogram("lat");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->count, 1000);
  EXPECT_DOUBLE_EQ(view->max_ms, 10.0);
  // Buckets grow ~15% per step: the estimate must land within one
  // bucket (+-20%) of the true quantile.
  EXPECT_NEAR(snap.percentile_ms("lat", 0.50), 5.0, 1.0);
  EXPECT_NEAR(snap.percentile_ms("lat", 0.99), 9.9, 2.0);
  // The top of the distribution is capped by the exact max.
  EXPECT_LE(snap.percentile_ms("lat", 1.0), 10.0);
}

TEST(MetricsRegistry, CallbackGaugeFreezesOnDetach) {
  MetricsRegistry registry;
  int live_value = 42;
  const int owner = 0;
  registry.register_callback("cb", &owner, [&live_value] {
    return static_cast<double>(live_value);
  });
  EXPECT_DOUBLE_EQ(registry.snapshot().value("cb"), 42.0);
  live_value = 43;
  registry.detach(&owner);  // evaluates once more and freezes
  live_value = 99;          // must never be read again
  EXPECT_DOUBLE_EQ(registry.snapshot().value("cb"), 43.0);
}

// ----------------------------------------------------------------- tracer

TEST(StageTracer, RingWraparoundKeepsWellFormedRecentSpans) {
  StageTracer tracer(/*enabled=*/true, /*ring_capacity=*/64, /*max_threads=*/4);
  constexpr std::uint64_t kSpans = 1000;
  for (std::uint64_t i = 0; i < kSpans; ++i) {
    tracer.record(TraceStage::kSample, /*context=*/i, /*aux=*/i,
                  static_cast<std::int64_t>(i), static_cast<std::int64_t>(i) + 1);
  }
  EXPECT_EQ(tracer.recorded(), static_cast<std::int64_t>(kSpans));
  EXPECT_EQ(tracer.dropped(), 0);
  const std::vector<TraceRecord> records = tracer.collect();
  ASSERT_EQ(records.size(), 64u);  // bounded by the ring, oldest overwritten
  for (const TraceRecord& r : records) {
    EXPECT_EQ(r.stage, TraceStage::kSample);
    EXPECT_EQ(r.end_ns, r.begin_ns + 1);
    EXPECT_EQ(r.context, static_cast<std::uint64_t>(r.begin_ns));
    EXPECT_GE(r.context, kSpans - 64);  // the retained set is the most recent
  }
}

TEST(StageTracer, ConcurrentWritersAndCollectorSeeOnlyConsistentRecords) {
  StageTracer tracer(/*enabled=*/true, /*ring_capacity=*/128, /*max_threads=*/8);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&tracer, &stop, t] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // Invariants a torn read would break: end = begin + 1,
        // aux = context.
        const auto ctx = (static_cast<std::uint64_t>(t) << 32) | i++;
        tracer.record(TraceStage::kGather, ctx, ctx, static_cast<std::int64_t>(i),
                      static_cast<std::int64_t>(i) + 1);
      }
    });
  }
  for (int round = 0; round < 200; ++round) {
    for (const TraceRecord& r : tracer.collect()) {
      ASSERT_EQ(r.end_ns, r.begin_ns + 1);
      ASSERT_EQ(r.aux, r.context);
      ASSERT_EQ(r.stage, TraceStage::kGather);
    }
  }
  stop.store(true);
  for (auto& writer : writers) writer.join();
  EXPECT_EQ(tracer.dropped(), 0);
}

TEST(StageTracer, DisabledTracerRecordsNothing) {
  StageTracer tracer(/*enabled=*/false);
  { StageTracer::Scope span(&tracer, TraceStage::kSample, 1); }
  tracer.record(TraceStage::kSample, 1, 0, 0, 1);
  EXPECT_EQ(tracer.recorded(), 0);
  EXPECT_TRUE(tracer.collect().empty());
}

// --------------------------------------------- end-to-end reconstruction

TEST(StageTracer, ServedRequestReconstructsQueueSampleGatherForwardPath) {
  Telemetry telemetry;
  const Dataset& ds = community();
  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);

  ServingConfig config;
  config.fanouts = {5, 5};
  config.num_workers = 1;
  config.telemetry = &telemetry;
  auto backend = make_static_backend(ds, config);
  InferenceServer server(*backend, snapshot, config);
  for (int i = 0; i < 4; ++i) (void)server.infer({0, 17, 40});

  // Group spans by batch context and find a fully-traced batch.
  std::set<std::uint64_t> contexts;
  for (const TraceRecord& r : telemetry.tracer().collect()) {
    if (r.stage == TraceStage::kSample) contexts.insert(r.context);
  }
  ASSERT_FALSE(contexts.empty());
  bool reconstructed = false;
  for (const std::uint64_t context : contexts) {
    const std::vector<TraceRecord> path = telemetry.tracer().context_path(context);
    std::map<TraceStage, TraceRecord> by_stage;
    for (const TraceRecord& r : path) by_stage[r.stage] = r;
    if (!by_stage.count(TraceStage::kQueue) || !by_stage.count(TraceStage::kSample) ||
        !by_stage.count(TraceStage::kGather) || !by_stage.count(TraceStage::kForward) ||
        !by_stage.count(TraceStage::kReply)) {
      continue;
    }
    reconstructed = true;
    for (const TraceRecord& r : path) EXPECT_LE(r.begin_ns, r.end_ns);
    const TraceRecord& queue = by_stage[TraceStage::kQueue];
    const TraceRecord& sample = by_stage[TraceStage::kSample];
    const TraceRecord& gather = by_stage[TraceStage::kGather];
    const TraceRecord& forward = by_stage[TraceStage::kForward];
    const TraceRecord& reply = by_stage[TraceStage::kReply];
    // The stages are strictly phased: each begins at or after the
    // previous one ends (all on the same steady clock).
    EXPECT_LE(queue.end_ns, sample.begin_ns);
    EXPECT_LE(sample.end_ns, gather.begin_ns);
    EXPECT_LE(gather.end_ns, forward.begin_ns);
    EXPECT_LE(forward.end_ns, reply.end_ns);
  }
  EXPECT_TRUE(reconstructed) << "no batch carried the full stage path";
}

TEST(StageTracer, FoldReconstructsCutBuildRebasePhases) {
  Telemetry telemetry;
  StreamingConfig config;
  config.telemetry = &telemetry;
  StreamingGraph graph(community(), config);

  Xoshiro256 rng(7);
  const auto n = static_cast<std::uint64_t>(graph.num_vertices());
  for (int i = 0; i < 256; ++i) {
    graph.add_edge(static_cast<VertexId>(rng.bounded(n)), static_cast<VertexId>(rng.bounded(n)));
  }
  (void)graph.publish();
  ASSERT_TRUE(graph.compact());

  // Find the fold context from its CUT span and reconstruct the phases.
  std::uint64_t fold_ctx = 0;
  bool found = false;
  for (const TraceRecord& r : telemetry.tracer().collect()) {
    if (r.stage == TraceStage::kCut) {
      fold_ctx = r.context;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  const std::vector<TraceRecord> path = telemetry.tracer().context_path(fold_ctx);
  std::map<TraceStage, TraceRecord> by_stage;
  for (const TraceRecord& r : path) by_stage[r.stage] = r;
  ASSERT_TRUE(by_stage.count(TraceStage::kCut));
  ASSERT_TRUE(by_stage.count(TraceStage::kBuild));
  ASSERT_TRUE(by_stage.count(TraceStage::kRebase));
  const TraceRecord& cut = by_stage[TraceStage::kCut];
  const TraceRecord& build = by_stage[TraceStage::kBuild];
  const TraceRecord& rebase = by_stage[TraceStage::kRebase];
  EXPECT_LE(cut.begin_ns, cut.end_ns);
  EXPECT_LE(build.begin_ns, build.end_ns);
  EXPECT_LE(rebase.begin_ns, rebase.end_ns);
  // Phases are disjoint and ordered: the off-lock build starts after
  // the cut's critical section, the rebase after the build completes.
  EXPECT_LE(cut.end_ns, build.begin_ns);
  EXPECT_LE(build.end_ns, rebase.begin_ns);

  // The registry mirrored the fold and the journal logged it.
  EXPECT_DOUBLE_EQ(telemetry.registry().snapshot().value("stream.compactions"), 1.0);
  bool journaled = false;
  for (const JournalEvent& event : telemetry.journal().events()) {
    if (event.kind == "fold") journaled = true;
  }
  EXPECT_TRUE(journaled);
}

// ---------------------------------------------------------------- journal

TEST(EventJournal, BoundedRingDropsOldestAndCountsDrops) {
  EventJournal journal(/*capacity=*/4);
  for (int i = 0; i < 6; ++i) journal.log("k" + std::to_string(i), "d");
  EXPECT_EQ(journal.dropped(), 2);
  const std::vector<JournalEvent> events = journal.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().kind, "k2");  // k0, k1 evicted
  EXPECT_EQ(events.back().kind, "k5");
  EXPECT_EQ(journal.drain().size(), 4u);
  EXPECT_TRUE(journal.events().empty());
}

// --------------------------------------------------------------- exporter

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(TelemetryExporter, EmitsOneJsonObjectPerLine) {
  const std::string path = "obs_exporter_test.jsonl";
  Telemetry telemetry;
  telemetry.registry().counter("serving.requests_completed").add(5);
  telemetry.registry().histogram("serving.latency_ms").observe_ms(2.0);
  telemetry.journal().log("publish", "version=1 overlay_ops=3");
  {
    TelemetryExporter exporter(telemetry, {path, /*interval_ms=*/0});
    exporter.flush("tick");
  }  // destructor appends the "final" snapshot
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_GE(lines.size(), 3u);  // event + tick snapshot + final snapshot
  int snapshots = 0, events = 0;
  for (const std::string& line : lines) {
    // CI re-parses with json.loads; here we hold the line discipline.
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"type\":"), std::string::npos);
    if (line.find("\"type\":\"snapshot\"") != std::string::npos) {
      ++snapshots;
      EXPECT_NE(line.find("\"metrics\":"), std::string::npos);
      EXPECT_NE(line.find("serving.requests_completed"), std::string::npos);
      EXPECT_NE(line.find("\"trace\":"), std::string::npos);
    }
    if (line.find("\"type\":\"event\"") != std::string::npos) {
      ++events;
      EXPECT_NE(line.find("\"kind\":\"publish\""), std::string::npos);
    }
  }
  EXPECT_EQ(snapshots, 2);
  EXPECT_EQ(events, 1);
  std::remove(path.c_str());
}

TEST(TelemetryExporter, SnapshotDuringInFlightFoldIsConsistent) {
  const std::string path = "obs_exporter_midfold_test.jsonl";
  Telemetry telemetry;
  StreamingConfig config;
  config.telemetry = &telemetry;
  StreamingGraph graph(community(), config);

  Xoshiro256 rng(13);
  const auto n = static_cast<std::uint64_t>(graph.num_vertices());
  for (int i = 0; i < 256; ++i) {
    graph.add_edge(static_cast<VertexId>(rng.bounded(n)), static_cast<VertexId>(rng.bounded(n)));
  }
  (void)graph.publish();

  std::mutex mutex;
  std::condition_variable cv;
  bool parked = false, release = false;
  graph.set_fold_hook([&] {
    std::unique_lock lock(mutex);
    parked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  std::thread folder([&graph] { EXPECT_TRUE(graph.compact()); });
  {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return parked; });
  }

  // The fold is parked off-lock between BUILD and REBASE.  A snapshot
  // taken now must not block and must see CUT + BUILD but no REBASE.
  {
    TelemetryExporter exporter(telemetry, {path, /*interval_ms=*/0});
    exporter.flush("mid_fold");
  }
  const MetricsSnapshot snap = telemetry.registry().snapshot();
  EXPECT_TRUE(snap.has("stream.overlay_edges"));  // callback gauges still live
  EXPECT_DOUBLE_EQ(snap.value("stream.compactions"), 0.0);  // fold not yet landed
  bool cut = false, build = false, rebase = false;
  for (const TraceRecord& r : telemetry.tracer().collect()) {
    if (r.stage == TraceStage::kCut) cut = true;
    if (r.stage == TraceStage::kBuild) build = true;
    if (r.stage == TraceStage::kRebase) rebase = true;
  }
  EXPECT_TRUE(cut);
  EXPECT_TRUE(build);
  EXPECT_FALSE(rebase);

  {
    std::lock_guard lock(mutex);
    release = true;
  }
  cv.notify_all();
  folder.join();
  graph.set_fold_hook(nullptr);
  EXPECT_DOUBLE_EQ(telemetry.registry().snapshot().value("stream.compactions"), 1.0);

  for (const std::string& line : read_lines(path)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hyscale
