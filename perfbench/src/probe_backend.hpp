// A ServingBackend decorator the benchmark hands to InferenceServer's
// seam constructor.  It forwards every call to the real backend and,
// per worker session:
//   * times the inner backend's acquire, sample, gather and release
//     (when timing is on);
//   * adds up the worker thread's CPU time from the start of acquire to
//     the end of release: the batch's own serving cost, forward included
//     (always on);
//   * keeps a copy of every Nth sampled batch, with the snapshot it was
//     sampled from, for the output checks after the run;
//   * tells an optional VersionObserver which snapshot each batch used
//     and when the batch finished (the freshness probes).
// Nothing here changes what the server computes: blocks and features
// pass through untouched.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common.hpp"
#include "serving/backend.hpp"
#include "stream/streaming_graph.hpp"

namespace perfbench {

/// Watches the snapshots batches are served from.  on_acquire runs on
/// the serving worker right after the batch pins `version`; it appends
/// tokens the batch carries to `held`.  on_release runs when the batch
/// drops its snapshot, after its replies were set.
class VersionObserver {
 public:
  virtual ~VersionObserver() = default;
  virtual void on_acquire(const hyscale::GraphVersion& version, std::vector<int>& held) = 0;
  virtual void on_release(const std::vector<int>& held, Clock::time_point done) = 0;
};

/// One kept batch: its sampled blocks and, in streaming mode, the exact
/// snapshot they were sampled from (null when a publish raced the
/// acquire and the snapshot could not be pinned from outside).
struct CapturedBatch {
  hyscale::MiniBatch batch;
  std::uint64_t freshness = 0;
  std::shared_ptr<const hyscale::GraphVersion> version;
};

/// Per-session record; outlives the session so it can be read after the
/// server is gone.
struct SessionLog {
  std::vector<double> acquire_us;
  std::vector<double> sample_ms;
  std::vector<double> gather_ms;
  std::vector<double> gather_rows;
  std::vector<double> release_us;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  double batch_cpu_s = 0.0;  ///< worker thread CPU, acquire through release
  std::vector<CapturedBatch> captures;
};

/// Takes each kept batch on the serving worker, once the batch has been
/// released (after its CPU time was read).
using CaptureSink = std::function<void(CapturedBatch&&)>;

class ProbeBackend final : public hyscale::ServingBackend {
 public:
  /// `inner` (and `stream`, when given) must outlive this decorator.
  /// `capture_every` keeps one batch in that many per session (0: none).
  ProbeBackend(hyscale::ServingBackend& inner, hyscale::StreamingGraph* stream, bool timing,
               int capture_every);

  void set_observer(VersionObserver* observer) { observer_.store(observer); }
  /// While set, kept batches go to `sink` instead of take_captures, so
  /// the snapshot a kept batch pins is dropped as soon as it is checked.
  void set_capture_sink(const CaptureSink* sink) { sink_.store(sink); }
  /// 1 keeps every batch from now on (the sequential check phase).
  void set_capture_every(int every) { capture_every_.store(every, std::memory_order_relaxed); }

  /// Moves out the timings and cache counters every session logged since
  /// the last call (kept batches stay for take_captures).
  SessionLog take_log();
  /// Moves out every kept batch, in no particular order.
  std::vector<CapturedBatch> take_captures();

  const char* name() const override { return inner_.name(); }
  const hyscale::Dataset& dataset() const override { return inner_.dataset(); }
  hyscale::VertexId query_limit() const override { return inner_.query_limit(); }
  std::unique_ptr<hyscale::BackendSession> make_session(std::uint64_t sampler_seed,
                                                        int num_layers) override;
  bool has_cache() const override { return inner_.has_cache(); }
  const hyscale::StaticFeatureCache* cache() const override { return inner_.cache(); }
  const hyscale::StaticFeatureCache* shard_cache(int s) const override {
    return inner_.shard_cache(s);
  }
  void rerank() override { inner_.rerank(); }
  void bind_metrics(hyscale::MetricsRegistry& registry) override {
    inner_.bind_metrics(registry);
  }
  std::int64_t sweep_expired(hyscale::Seconds ttl, std::int64_t max_retire,
                             hyscale::EdgeId pending_op_budget) override {
    return inner_.sweep_expired(ttl, max_retire, pending_op_budget);
  }
  hyscale::Telemetry* telemetry() const override { return inner_.telemetry(); }

 private:
  class Session;
  struct LogSlot {
    std::mutex mutex;  ///< the session writes once per batch; readers copy
    SessionLog log;
  };

  hyscale::ServingBackend& inner_;
  hyscale::StreamingGraph* stream_;
  bool timing_;
  std::atomic<VersionObserver*> observer_{nullptr};
  std::atomic<const CaptureSink*> sink_{nullptr};
  std::atomic<int> capture_every_;
  mutable std::mutex slots_mutex_;
  std::vector<std::shared_ptr<LogSlot>> slots_;  ///< guarded by slots_mutex_
};

}  // namespace perfbench
