// Tests for the diagnosis plane (PR 7): per-request critical-path
// reconstruction via the TraceAssembler, tail-exemplar retention, the
// liveness watchdog — both directions: it DETECTS an artificially
// parked compactor fold, and it stays silent across a healthy
// multi-second run with the default calibration — and the flight
// recorder: trip-driven dumps, rate limiting, teardown ordering, and
// a trip racing the recorder's destruction.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
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

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void wait_until(const std::function<bool()>& done, Seconds timeout = 5.0) {
  Timer t;
  while (!done() && t.elapsed() < timeout)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
}

// ------------------------------------------- critical-path reconstruction

TEST(TraceAssembler, ReconstructsExactCriticalPathPerRequest) {
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

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(server.infer({0, 17, 40}).request_id);

  // infer() returns when the promise is fulfilled; the worker records
  // the reply span (and offers the exemplar) just after.  Re-collect
  // until the last request's trace has landed in the rings.
  std::optional<TraceAssembler> maybe;
  wait_until([&] {
    maybe.emplace(telemetry.tracer().collect());
    for (const std::uint64_t id : ids) {
      const std::optional<RequestTrace> trace = maybe->request(id);
      if (!trace.has_value() || !trace->complete()) return false;
    }
    return true;
  });
  const TraceAssembler& assembler = *maybe;
  // EVERY submitted request reconstructs — exact set equality on ids,
  // not just "some requests came back".
  const std::vector<RequestTrace> traces = assembler.assemble();
  std::set<std::uint64_t> reconstructed;
  for (const RequestTrace& trace : traces) reconstructed.insert(trace.request_id);
  EXPECT_EQ(reconstructed, std::set<std::uint64_t>(ids.begin(), ids.end()));

  for (const std::uint64_t id : ids) {
    const std::optional<RequestTrace> trace = assembler.request(id);
    ASSERT_TRUE(trace.has_value()) << "request " << id << " not reconstructed";
    EXPECT_EQ(trace->request_id, id);
    EXPECT_TRUE(trace->complete())
        << "request " << id << " is missing a stage span";
    // The path is exact: queue ends at worker pickup, then the batch
    // stages tile forward in order on the same steady clock, and the
    // trace's total is precisely enqueue -> reply-done.
    EXPECT_EQ(trace->enqueue_ns, trace->queue.begin_ns);
    EXPECT_LE(trace->queue.begin_ns, trace->queue.end_ns);
    EXPECT_LE(trace->queue.end_ns, trace->sample.begin_ns);
    EXPECT_LE(trace->sample.begin_ns, trace->sample.end_ns);
    EXPECT_LE(trace->sample.end_ns, trace->gather.begin_ns);
    EXPECT_LE(trace->gather.begin_ns, trace->gather.end_ns);
    EXPECT_LE(trace->gather.end_ns, trace->forward.begin_ns);
    EXPECT_LE(trace->forward.begin_ns, trace->forward.end_ns);
    EXPECT_LE(trace->forward.end_ns, trace->reply.begin_ns);
    EXPECT_LE(trace->reply.begin_ns, trace->reply.end_ns);
    EXPECT_EQ(trace->done_ns, trace->reply.end_ns);
    EXPECT_EQ(trace->total_ns(), trace->reply.end_ns - trace->queue.begin_ns);
    EXPECT_GT(trace->total_ns(), 0);
    // Single in-flight request on one worker: the batch is exactly it.
    EXPECT_EQ(trace->batch_requests, 1);
    EXPECT_EQ(trace->batch_seeds, 3);
  }

  // Unknown ids are a miss, not a zero-filled trace.
  EXPECT_FALSE(assembler.request(0xdeadbeef).has_value());
}

TEST(TraceAssembler, RequestWithoutBatchSpansIsIncomplete) {
  // A queue span whose batch stages were overwritten still reports,
  // with the lost stages marked absent.
  std::vector<TraceRecord> records(1);
  records[0].stage = TraceStage::kQueue;
  records[0].begin_ns = 100;
  records[0].end_ns = 250;
  records[0].context = 7;   // batch id
  records[0].aux = 42;      // request id
  const TraceAssembler assembler(std::move(records));
  const std::optional<RequestTrace> trace = assembler.request(42);
  ASSERT_TRUE(trace.has_value());
  EXPECT_TRUE(trace->queue.present);
  EXPECT_FALSE(trace->sample.present);
  EXPECT_FALSE(trace->complete());
  EXPECT_EQ(trace->batch_id, 7u);
}

// ----------------------------------------------------------- exemplar ring

RequestTrace trace_with_total(std::uint64_t id, std::int64_t total_ns) {
  RequestTrace trace;
  trace.request_id = id;
  trace.enqueue_ns = 0;
  trace.done_ns = total_ns;
  return trace;
}

TEST(ExemplarRing, RetainsSlowestAndRaisesThreshold) {
  ExemplarRing ring(/*capacity=*/3);
  EXPECT_EQ(ring.threshold_ns(), 0);
  // Fill: everything admits while there is room.
  EXPECT_TRUE(ring.offer(trace_with_total(1, 100)));
  EXPECT_TRUE(ring.offer(trace_with_total(2, 300)));
  EXPECT_TRUE(ring.offer(trace_with_total(3, 200)));
  // Full: threshold is the fastest retained total.
  EXPECT_EQ(ring.threshold_ns(), 100);
  // At-or-below threshold is rejected on the fast path.
  EXPECT_FALSE(ring.offer(trace_with_total(4, 100)));
  EXPECT_FALSE(ring.offer(trace_with_total(5, 50)));
  // Slower than the fastest retained: evicts it, threshold rises.
  EXPECT_TRUE(ring.offer(trace_with_total(6, 250)));
  EXPECT_EQ(ring.threshold_ns(), 200);

  const std::vector<RequestTrace> slowest = ring.slowest();
  ASSERT_EQ(slowest.size(), 3u);
  EXPECT_EQ(slowest[0].request_id, 2u);  // 300
  EXPECT_EQ(slowest[1].request_id, 6u);  // 250
  EXPECT_EQ(slowest[2].request_id, 3u);  // 200
  EXPECT_EQ(ring.offered(), 6);
  EXPECT_EQ(ring.admitted(), 4);
}

TEST(ExemplarRing, ServingWorkersFeedTheRing) {
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
  for (int i = 0; i < 8; ++i) (void)server.infer({0, 17, 40});

  // The worker offers the exemplar after fulfilling the reply promise;
  // give the last offer a moment to land.
  wait_until([&] { return telemetry.exemplars().offered() >= 8; });
  EXPECT_EQ(telemetry.exemplars().offered(), 8);
  const std::vector<RequestTrace> slowest = telemetry.exemplars().slowest();
  ASSERT_FALSE(slowest.empty());
  for (const RequestTrace& trace : slowest) {
    EXPECT_TRUE(trace.complete());
    EXPECT_GT(trace.total_ns(), 0);
  }
}

// --------------------------------------------------------------- watchdog

TEST(Watchdog, DetectsParkedCompactorFoldAndJournalsRecovery) {
  Telemetry telemetry;
  StreamingConfig config;
  config.telemetry = &telemetry;
  StreamingGraph graph(community(), config);

  Xoshiro256 rng(29);
  const auto n = static_cast<std::uint64_t>(graph.num_vertices());
  for (int i = 0; i < 256; ++i) {
    graph.add_edge(static_cast<VertexId>(rng.bounded(n)), static_cast<VertexId>(rng.bounded(n)));
  }
  (void)graph.publish();

  // Park the next fold inside its off-lock BUILD phase: the compactor
  // thread is genuinely wedged — busy, not idle — which is exactly the
  // signature the watchdog must flag.
  std::mutex mutex;
  std::condition_variable cv;
  bool parked = false, release = false;
  graph.set_fold_hook([&] {
    std::unique_lock lock(mutex);
    parked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });

  CompactionPolicy compaction;
  compaction.max_overlay_edges = 64;  // 256 pending ops: triggers immediately
  compaction.poll_interval = 2e-3;
  Compactor compactor(graph, compaction);

  WatchdogConfig wcfg;
  wcfg.check_interval_ns = 5'000'000;  // sweep every 5 ms
  wcfg.min_stall_ns = 50'000'000;      // flag after 50 ms of busy silence
  Watchdog watchdog(telemetry, wcfg);

  {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return parked; });
  }
  wait_until([&] { return watchdog.stalls() >= 1; });
  EXPECT_GE(watchdog.stalls(), 1);
  EXPECT_DOUBLE_EQ(telemetry.registry().snapshot().value("watchdog.stalls"),
                   static_cast<double>(watchdog.stalls()));

  bool journaled_stall = false;
  for (const JournalEvent& event : telemetry.journal().events()) {
    if (event.kind == "watchdog_stall" &&
        event.detail.find("stream.compactor") != std::string::npos) {
      journaled_stall = true;
    }
  }
  EXPECT_TRUE(journaled_stall) << "stall not journaled against stream.compactor";

  bool tripped = false;
  for (const TripRecord& trip : telemetry.trips()) {
    if (trip.reason == "watchdog_stall:stream.compactor") tripped = true;
  }
  EXPECT_TRUE(tripped) << "stall did not escalate through the trip channel";

  // Release the fold; the compactor beats again and the watchdog
  // journals the recovery.
  {
    std::lock_guard lock(mutex);
    release = true;
  }
  cv.notify_all();
  wait_until([&] {
    for (const JournalEvent& event : telemetry.journal().events()) {
      if (event.kind == "watchdog_recovered" &&
          event.detail.find("stream.compactor") != std::string::npos) {
        return true;
      }
    }
    return false;
  });
  compactor.stop();
  watchdog.stop();
  graph.set_fold_hook(nullptr);

  bool recovered = false;
  for (const JournalEvent& event : telemetry.journal().events()) {
    if (event.kind == "watchdog_recovered" &&
        event.detail.find("stream.compactor") != std::string::npos) {
      recovered = true;
    }
  }
  EXPECT_TRUE(recovered) << "recovery not journaled after the fold was released";
}

TEST(Watchdog, NoFalsePositivesOverHealthyMultiSecondRun) {
  // Default calibration (250 ms floor, 8x hint) against a live mixed
  // workload: serving workers cycling busy/idle, a compactor and
  // publisher and sweeper on their normal cadences.  A healthy run
  // must produce ZERO stall episodes — this is the false-positive
  // bound the watchdog's thresholds are calibrated for.
  Telemetry telemetry;
  StreamingConfig stream_config;
  stream_config.telemetry = &telemetry;
  StreamingGraph graph(community(), stream_config);

  CompactionPolicy compaction;
  compaction.max_overlay_edges = 512;
  Compactor compactor(graph, compaction);
  PublisherPolicy publisher_policy;
  publisher_policy.staleness_budget = 5e-3;
  Publisher publisher(graph, publisher_policy);
  ExpiryPolicy expiry;
  expiry.ttl = 1.0;
  expiry.sweep_interval = 5e-3;
  expiry.pending_op_budget = 0;
  ExpirySweeper sweeper(graph, expiry);

  GnnModel model(small_model_config());
  const ModelSnapshot snapshot(model);
  ServingConfig serving;
  serving.fanouts = {5, 5};
  serving.num_workers = 2;
  serving.telemetry = &telemetry;
  auto backend = make_static_backend(community(), serving);
  InferenceServer server(*backend, snapshot, serving);

  Watchdog watchdog(telemetry);  // default config

  Xoshiro256 rng(31);
  const auto n = static_cast<std::uint64_t>(graph.num_vertices());
  Timer wall;
  while (wall.elapsed() < 2.5) {
    for (int i = 0; i < 8; ++i) {
      graph.add_edge(static_cast<VertexId>(rng.bounded(n)),
                     static_cast<VertexId>(rng.bounded(n)));
    }
    (void)server.infer({0, 17, 40});
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  EXPECT_GT(watchdog.sweeps(), 50) << "watchdog barely ran; bound not exercised";
  EXPECT_EQ(watchdog.stalls(), 0) << "false positive on a healthy run";
  // The publisher may legitimately trip slo_breach under test-machine
  // load; only watchdog escalations count as false positives here.
  for (const TripRecord& trip : telemetry.trips()) {
    EXPECT_EQ(trip.reason.rfind("watchdog_stall", 0), std::string::npos)
        << "watchdog trip on a healthy run: " << trip.reason;
  }
  // Many hearts actually participated: 2 workers + compactor +
  // publisher + sweeper.
  EXPECT_GE(telemetry.heartbeats().size(), 5u);
}

// --------------------------------------------------------- flight recorder

TEST(FlightRecorder, TripDumpsRateLimitAndExplicitDumpDoesNot) {
  const std::string path = "diagnosis_flight_test.json";
  Telemetry telemetry;
  telemetry.registry().counter("serving.requests_completed").add(3);
  telemetry.registry().histogram("serving.latency_ms").observe_ms(2.5);
  telemetry.journal().log("publish", "version=1 overlay_ops=9");
  telemetry.heartbeats().register_thread("test.thread", 1'000'000).beat();
  (void)telemetry.exemplars().offer(trace_with_total(5, 2'000'000));

  FlightRecorderConfig config;
  config.path = path;
  config.min_dump_gap_ns = 3'600'000'000'000;  // 1 h: second trip must suppress
  config.dump_on_teardown = false;
  {
    FlightRecorder recorder(telemetry, config);
    telemetry.trip("slo_breach");
    EXPECT_EQ(recorder.dumps(), 1);
    telemetry.trip("slo_breach");  // inside the gap
    EXPECT_EQ(recorder.dumps(), 1);
    EXPECT_EQ(recorder.suppressed(), 1);
    // Explicit dumps bypass the limiter.
    EXPECT_TRUE(recorder.dump("operator_request"));
    EXPECT_EQ(recorder.dumps(), 2);
  }

  const std::string body = read_file(path);
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body.front(), '{');
  EXPECT_EQ(body[body.size() - 2], '}');  // trailing newline after the object
  for (const char* key :
       {"\"type\":\"flight_record\"", "\"reason\":\"operator_request\"",
        "\"trips\":", "\"slo_breach\"", "\"metrics\":", "\"journal\":",
        "\"heartbeats\":", "\"test.thread\"", "\"exemplars\":",
        "\"request_id\":5", "\"journal.dropped_events\""}) {
    EXPECT_NE(body.find(key), std::string::npos) << "missing " << key;
  }
  std::remove(path.c_str());
}

TEST(FlightRecorder, TeardownDumpCompletesMidExporterInterval) {
  // The exporter thread is parked mid-interval (long cadence) when the
  // recorder tears down: the dump must complete with the exporter
  // still alive, and the exporter's own final snapshot must still land
  // afterwards — teardown order recorder -> exporter -> telemetry.
  const std::string flight_path = "diagnosis_teardown_flight.json";
  const std::string jsonl_path = "diagnosis_teardown_metrics.jsonl";
  Telemetry telemetry;
  telemetry.registry().counter("serving.requests_completed").add(1);
  {
    TelemetryExporter exporter(telemetry, {jsonl_path, /*interval_ms=*/60'000});
    {
      FlightRecorderConfig config;
      config.path = flight_path;
      FlightRecorder recorder(telemetry, config);
      telemetry.journal().log("fold", "version=2");
    }  // teardown dump, exporter mid-wait
    const std::string body = read_file(flight_path);
    ASSERT_FALSE(body.empty());
    EXPECT_NE(body.find("\"reason\":\"teardown\""), std::string::npos);
    // The exporter heart is registered and idle in its interval wait.
    EXPECT_NE(body.find("\"obs.exporter\""), std::string::npos);
  }  // exporter stops: final snapshot
  bool final_snapshot = false;
  std::ifstream in(jsonl_path);
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"reason\":\"final\"") != std::string::npos) final_snapshot = true;
  }
  EXPECT_TRUE(final_snapshot);
  std::remove(flight_path.c_str());
  std::remove(jsonl_path.c_str());
}

TEST(FlightRecorder, TripsRacingDestructionAreSafe) {
  // Hammer the trip channel from another thread while recorders come
  // and go: the handler clears under the trip mutex, so a trip either
  // lands in a live recorder or records history-only — never a
  // use-after-free.  (This test's teeth are under TSan in CI.)
  const std::string path = "diagnosis_race_flight.json";
  Telemetry telemetry;
  std::atomic<bool> stop{false};
  std::thread tripper([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      telemetry.trip("race_trip_" + std::to_string(i++));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (int round = 0; round < 20; ++round) {
    FlightRecorderConfig config;
    config.path = path;
    config.min_dump_gap_ns = 1;  // dump eagerly: maximize handler activity
    config.dump_on_teardown = false;
    FlightRecorder recorder(telemetry, config);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  tripper.join();
  // Bounded history survived the storm.
  EXPECT_LE(telemetry.trips().size(), 64u);
  EXPECT_FALSE(telemetry.trips().empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hyscale
