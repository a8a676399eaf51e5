#include "probe_backend.hpp"

#include <utility>

namespace perfbench {

using hyscale::BackendSession;
using hyscale::MiniBatch;
using hyscale::StaticFeatureCache;
using hyscale::Tensor;
using hyscale::VertexId;

class ProbeBackend::Session final : public BackendSession {
 public:
  Session(ProbeBackend& owner, std::unique_ptr<BackendSession> inner,
          std::shared_ptr<LogSlot> slot)
      : owner_(owner), inner_(std::move(inner)), slot_(std::move(slot)) {}

  std::uint64_t acquire() override {
    cpu0_ = thread_cpu_seconds();
    const auto t0 = owner_.timing_ ? Clock::now() : Clock::time_point{};
    const std::uint64_t freshness = inner_->acquire();
    if (owner_.timing_) acquire_us_ = us_between(t0, Clock::now());
    freshness_ = freshness;
    version_.reset();
    held_.clear();
    if (owner_.stream_ != nullptr) {
      // The inner session pinned stream.current(); re-reading it here
      // yields the same version unless a publish slipped in between.
      auto current = owner_.stream_->current();
      if (current->id() == freshness) {
        version_ = std::move(current);
        observer_ = owner_.observer_.load();
        if (observer_ != nullptr) observer_->on_acquire(*version_, held_);
      }
    }
    return freshness;
  }

  MiniBatch sample(const std::vector<VertexId>& seeds, std::uint64_t stream_seed) override {
    const auto t0 = owner_.timing_ ? Clock::now() : Clock::time_point{};
    MiniBatch batch = inner_->sample(seeds, stream_seed);
    if (owner_.timing_) sample_ms_ = ms_between(t0, Clock::now());
    const int every = owner_.capture_every_.load(std::memory_order_relaxed);
    capture_ = every > 0 && (count_++ % every) == 0;
    if (capture_) captured_ = CapturedBatch{batch, freshness_, version_};
    return batch;
  }

  std::optional<StaticFeatureCache::LoadStats> gather(const MiniBatch& batch, Tensor& out,
                                                      std::vector<char>& hit_scratch) override {
    const auto t0 = owner_.timing_ ? Clock::now() : Clock::time_point{};
    auto stats = inner_->gather(batch, out, hit_scratch);
    if (owner_.timing_) gather_ms_ = ms_between(t0, Clock::now());
    gather_rows_ = static_cast<double>(batch.input_nodes().size());
    stats_ = stats;
    return stats;
  }

  void release() override {
    const auto t0 = owner_.timing_ ? Clock::now() : Clock::time_point{};
    inner_->release();
    const double batch_cpu_s = thread_cpu_seconds() - cpu0_;
    const auto done = Clock::now();
    const double release_us = owner_.timing_ ? us_between(t0, done) : 0.0;
    if (!held_.empty()) observer_->on_release(held_, done);
    version_.reset();
    if (const CaptureSink* sink = owner_.sink_.load(); capture_ && sink != nullptr) {
      (*sink)(std::move(captured_));
      captured_ = CapturedBatch{};
      capture_ = false;
    }
    std::lock_guard lock(slot_->mutex);
    SessionLog& log = slot_->log;
    log.batch_cpu_s += batch_cpu_s;
    if (owner_.timing_) {
      log.acquire_us.push_back(acquire_us_);
      log.sample_ms.push_back(sample_ms_);
      log.gather_ms.push_back(gather_ms_);
      log.gather_rows.push_back(gather_rows_);
      log.release_us.push_back(release_us);
    }
    if (stats_) {
      log.hits += stats_->hits;
      log.misses += stats_->misses;
    }
    if (capture_) log.captures.push_back(std::move(captured_));
    capture_ = false;
    stats_.reset();
  }

 private:
  ProbeBackend& owner_;
  std::unique_ptr<BackendSession> inner_;
  std::shared_ptr<LogSlot> slot_;
  std::uint64_t freshness_ = 0;
  std::shared_ptr<const hyscale::GraphVersion> version_;
  std::vector<int> held_;
  VersionObserver* observer_ = nullptr;  ///< the observer this batch reported to
  std::int64_t count_ = 0;
  bool capture_ = false;
  CapturedBatch captured_;
  double cpu0_ = 0.0;
  double acquire_us_ = 0.0;
  double sample_ms_ = 0.0;
  double gather_ms_ = 0.0;
  double gather_rows_ = 0.0;
  std::optional<StaticFeatureCache::LoadStats> stats_;
};

ProbeBackend::ProbeBackend(hyscale::ServingBackend& inner, hyscale::StreamingGraph* stream,
                           bool timing, int capture_every)
    : inner_(inner), stream_(stream), timing_(timing), capture_every_(capture_every) {}

std::unique_ptr<BackendSession> ProbeBackend::make_session(std::uint64_t sampler_seed,
                                                           int num_layers) {
  auto slot = std::make_shared<LogSlot>();
  {
    std::lock_guard lock(slots_mutex_);
    slots_.push_back(slot);
  }
  return std::make_unique<Session>(*this, inner_.make_session(sampler_seed, num_layers),
                                   std::move(slot));
}

SessionLog ProbeBackend::take_log() {
  SessionLog merged;
  std::lock_guard lock(slots_mutex_);
  for (const auto& slot : slots_) {
    std::lock_guard slot_lock(slot->mutex);
    SessionLog& log = slot->log;
    merged.acquire_us.insert(merged.acquire_us.end(), log.acquire_us.begin(), log.acquire_us.end());
    merged.release_us.insert(merged.release_us.end(), log.release_us.begin(), log.release_us.end());
    merged.sample_ms.insert(merged.sample_ms.end(), log.sample_ms.begin(), log.sample_ms.end());
    merged.gather_ms.insert(merged.gather_ms.end(), log.gather_ms.begin(), log.gather_ms.end());
    merged.gather_rows.insert(merged.gather_rows.end(), log.gather_rows.begin(),
                              log.gather_rows.end());
    merged.hits += log.hits;
    merged.misses += log.misses;
    merged.batch_cpu_s += log.batch_cpu_s;
    log.acquire_us.clear();
    log.release_us.clear();
    log.sample_ms.clear();
    log.gather_ms.clear();
    log.gather_rows.clear();
    log.hits = 0;
    log.misses = 0;
    log.batch_cpu_s = 0.0;
  }
  return merged;
}

std::vector<CapturedBatch> ProbeBackend::take_captures() {
  std::vector<CapturedBatch> out;
  std::lock_guard lock(slots_mutex_);
  for (const auto& slot : slots_) {
    std::lock_guard slot_lock(slot->mutex);
    for (auto& c : slot->log.captures) out.push_back(std::move(c));
    slot->log.captures.clear();
  }
  return out;
}

}  // namespace perfbench
