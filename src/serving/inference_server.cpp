#include "serving/inference_server.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "common/rng.hpp"
#include "common/strutil.hpp"
#include "obs/telemetry.hpp"

namespace hyscale {

namespace {

/// Batch-content hash for per-micro-batch sampler reseeding: the same
/// coalesced seed list always samples the same neighborhoods, whatever
/// worker picks the batch up.
std::uint64_t batch_stream_seed(std::uint64_t base, const std::vector<VertexId>& seeds) {
  std::uint64_t state = base ^ 0x9e3779b97f4a7c15ULL;
  for (VertexId v : seeds) {
    state ^= static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL + (state << 6) + (state >> 2);
    state = splitmix64(state);
  }
  return state;
}

int argmax_row(const Tensor& logits, std::int64_t row) {
  int best = 0;
  for (std::int64_t c = 1; c < logits.cols(); ++c) {
    if (logits.at(row, c) > logits.at(row, best)) best = static_cast<int>(c);
  }
  return best;
}

/// steady_clock time_point on the StageTracer::now_ns timeline.
std::int64_t to_trace_ns(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(tp.time_since_epoch())
      .count();
}

/// Snapshot handles must drop even when sampling/forward throws — the
/// next acquire() needs the session back in its released state.
struct SessionReleaseGuard {
  BackendSession* session;
  ~SessionReleaseGuard() { session->release(); }
};

}  // namespace

InferenceServer::InferenceServer(ServingBackend& backend, const ModelSnapshot& snapshot,
                                 ServingConfig config)
    : config_(std::move(config)),
      num_classes_(snapshot.num_classes()),
      num_layers_(snapshot.num_layers()),
      backend_(backend),
      batcher_(config_.batch) {
  bind_metrics();
  init_workers(snapshot);
}

void InferenceServer::bind_metrics() {
  if (config_.telemetry != nullptr) {
    registry_ = &config_.telemetry->registry();
  } else {
    own_registry_ = std::make_unique<MetricsRegistry>();
    registry_ = own_registry_.get();
  }
  MetricsRegistry& reg = *registry_;
  m_completed_ = &reg.counter("serving.requests_completed");
  m_rejected_ = &reg.counter("serving.requests_rejected");
  m_batches_ = &reg.counter("serving.batches");
  m_seeds_ = &reg.counter("serving.seeds");
  m_batch_requests_ = &reg.counter("serving.batch_requests_total");
  m_cache_hits_ = &reg.counter("serving.cache_hits");
  m_cache_misses_ = &reg.counter("serving.cache_misses");
  m_device_bytes_ = &reg.gauge("serving.cache_device_bytes");
  m_host_bytes_ = &reg.gauge("serving.cache_host_bytes");
  m_min_batch_ = &reg.gauge("serving.min_batch_requests");
  m_max_batch_ = &reg.gauge("serving.max_batch_requests");
  m_latency_ = &reg.histogram("serving.latency_ms");
  m_queue_wait_ = &reg.histogram("serving.queue_wait_ms");
  if (config_.telemetry == nullptr) return;

  batcher_.bind(config_.telemetry);
  tracer_ = &config_.telemetry->tracer();
  if (config_.telemetry->exemplars().capacity() > 0)
    exemplars_ = &config_.telemetry->exemplars();
  m_served_version_ = &reg.gauge("serving.last_served_version");
  m_model_epoch_ = &reg.gauge("model.epoch");
  m_model_epoch_->set(1.0);
  backend_.bind_metrics(reg);
  config_.telemetry->journal().log(
      "serving_start", std::string("backend=") + backend_.name() +
                           " workers=" + std::to_string(config_.num_workers));
}

void InferenceServer::init_workers(const ModelSnapshot& snapshot) {
  if (config_.num_workers < 1)
    throw std::invalid_argument("InferenceServer: num_workers must be >= 1");
  if (!config_.fanouts.empty() &&
      static_cast<int>(config_.fanouts.size()) != num_layers_) {
    throw std::invalid_argument("InferenceServer: fanouts must have one entry per layer");
  }

  workers_.resize(static_cast<std::size_t>(config_.num_workers));
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    workers_[w].model = snapshot.instantiate();
    workers_[w].session = backend_.make_session(config_.seed + w, num_layers_);
    if (config_.telemetry != nullptr) {
      // Hint: the longest stage-to-stage gap while busy.  Workers beat
      // between pipeline stages, so only a single wedged stage (a
      // gather deadlock, a stuck forward) grows the age past it.
      workers_[w].heart = &config_.telemetry->heartbeats().register_thread(
          "serving.worker." + std::to_string(w), /*interval_hint_ns=*/100'000'000);
    }
  }

  pool_ = std::make_unique<ThreadPool>(workers_.size());
  for (auto& worker : workers_) {
    pool_->submit([this, &worker] { worker_loop(worker); });
  }
}

InferenceServer::~InferenceServer() {
  batcher_.shutdown();
  pool_.reset();     // joins the worker loops after they drain the queue
  workers_.clear();  // sessions die before the backend they came from
}

std::optional<std::future<InferenceResult>> InferenceServer::try_submit(
    std::vector<VertexId> seeds) {
  if (seeds.empty())
    throw std::invalid_argument("InferenceServer: empty seed list");
  // Streaming vertices become queryable once a version containing them
  // is published (sharded: adopted — execute-time cuts/versions are
  // monotonically newer).
  const VertexId limit = backend_.query_limit();
  for (VertexId v : seeds) {
    if (v < 0 || v >= limit)
      throw std::invalid_argument("InferenceServer: seed vertex out of range");
  }
  InferenceRequest request;
  request.id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  request.seeds = std::move(seeds);
  request.enqueue_time = std::chrono::steady_clock::now();
  auto future = request.promise.get_future();
  if (!batcher_.submit(std::move(request))) {
    m_rejected_->add(1);
    return std::nullopt;
  }
  return future;
}

InferenceResult InferenceServer::infer(std::vector<VertexId> seeds) {
  for (;;) {
    auto future = try_submit(seeds);
    if (future) return future->get();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

std::uint64_t InferenceServer::swap_model(const ModelSnapshot& snapshot) {
  if (snapshot.num_classes() != num_classes_ || snapshot.num_layers() != num_layers_) {
    throw std::invalid_argument(
        "InferenceServer::swap_model: snapshot architecture does not match the serving "
        "model (layer/class counts must be equal)");
  }
  // ModelSnapshot is move-only, so stage a deep copy: the caller keeps
  // their snapshot, the server owns the staged weights for as long as
  // workers may still instantiate from them.
  auto staged = std::make_shared<const ModelSnapshot>(*snapshot.instantiate());
  std::uint64_t epoch;
  {
    std::lock_guard lock(model_mutex_);
    staged_model_ = std::move(staged);
    // Publish the epoch AFTER the snapshot it names: a worker that sees
    // the new epoch and takes the lock is guaranteed to find at least
    // this snapshot staged.
    epoch = model_epoch_.load(std::memory_order_relaxed) + 1;
    model_epoch_.store(epoch, std::memory_order_release);
  }
  if (m_model_epoch_ != nullptr) m_model_epoch_->set(static_cast<double>(epoch));
  if (config_.telemetry != nullptr) {
    config_.telemetry->journal().log(
        "model_swap", std::string("backend=") + backend_.name() +
                          " epoch=" + std::to_string(epoch));
  }
  return epoch;
}

void InferenceServer::refresh_worker_model(Worker& worker) {
  // One relaxed-ish load per batch; only a swap pays the lock.
  if (model_epoch_.load(std::memory_order_acquire) == worker.model_epoch) return;
  std::shared_ptr<const ModelSnapshot> staged;
  std::uint64_t epoch;
  {
    std::lock_guard lock(model_mutex_);
    staged = staged_model_;
    epoch = model_epoch_.load(std::memory_order_relaxed);
  }
  if (!staged) return;  // construction epoch: nothing staged yet
  worker.model = staged->instantiate();
  worker.model_epoch = epoch;
}

void InferenceServer::worker_loop(Worker& worker) {
  std::vector<InferenceRequest> batch;
  for (;;) {
    // Blocking on an empty queue is not a stall: idle while parked in
    // next_batch, busy (and freshly stamped) the moment a batch lands.
    if (worker.heart != nullptr) worker.heart->idle_enter();
    const bool alive = batcher_.next_batch(batch);
    if (worker.heart != nullptr) worker.heart->idle_exit();
    if (!alive) break;
    execute_batch(worker, batch);
  }
  if (worker.heart != nullptr) worker.heart->retire();
}

void InferenceServer::execute_batch(Worker& worker, std::vector<InferenceRequest>& batch) {
  const std::uint64_t batch_id = next_batch_id_.fetch_add(1, std::memory_order_relaxed);
  const auto pickup = std::chrono::steady_clock::now();
  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  // Stage boundaries are stamped explicitly (not RAII scopes) so ONE
  // set of timestamps feeds both the tracer rings and the exemplar
  // traces — a retained exemplar matches the assembled ring spans
  // exactly.  When neither consumer is on, no extra clocks are read.
  const bool diag = tracing || exemplars_ != nullptr;
  const std::int64_t pickup_ns = diag ? to_trace_ns(pickup) : 0;
  // Queue spans close at pickup: one per request, correlated to this
  // batch by context so context_path(batch_id) reconstructs the full
  // queue -> sample -> gather -> forward -> reply critical path.
  if (tracing) {
    for (const auto& request : batch) {
      tracer_->record(TraceStage::kQueue, batch_id, request.id,
                      to_trace_ns(request.enqueue_time), pickup_ns);
    }
  }
  try {
    // Hot-swap pickup happens at the batch boundary, BEFORE the
    // snapshot acquire: the whole batch runs on one replica, so a
    // concurrent swap_model can never tear it.
    refresh_worker_model(worker);

    // Coalesce: request seeds concatenate in arrival order, so logits
    // row blocks map back to requests by offset.  Worker-owned scratch:
    // capacity persists across batches.
    std::vector<VertexId>& combined = worker.combined;
    combined.clear();
    for (const auto& request : batch) {
      combined.insert(combined.end(), request.seeds.begin(), request.seeds.end());
    }

    BackendSession& session = *worker.session;
    const std::int64_t sample_begin_ns = diag ? StageTracer::now_ns() : 0;
    const std::uint64_t freshness = session.acquire();
    SessionReleaseGuard release_guard{&session};
    if (freshness > 0) {
      // Max-merge across workers: two batches can acquire in one order
      // and store in the other, and a plain store would let the gauge
      // go backwards.
      std::uint64_t seen = last_served_version_.load(std::memory_order_relaxed);
      while (seen < freshness &&
             !last_served_version_.compare_exchange_weak(seen, freshness,
                                                         std::memory_order_relaxed)) {
      }
      if (m_served_version_ != nullptr)
        m_served_version_->set_max(static_cast<double>(freshness));
    }
    MiniBatch mb = session.sample(combined, batch_stream_seed(config_.seed, combined));
    const std::int64_t sample_end_ns = diag ? StageTracer::now_ns() : 0;
    if (tracing)
      tracer_->record(TraceStage::kSample, batch_id, combined.size(), sample_begin_ns,
                      sample_end_ns);
    if (worker.heart != nullptr) worker.heart->beat();

    Tensor& x = worker.x;
    const auto gather_stats = session.gather(mb, x, worker.hit_scratch);
    if (gather_stats) {
      m_cache_hits_->add(gather_stats->hits);
      m_cache_misses_->add(gather_stats->misses);
      m_device_bytes_->add(gather_stats->device_bytes);
      m_host_bytes_->add(gather_stats->host_bytes);
    }
    maybe_rerank(static_cast<std::int64_t>(mb.input_nodes().size()));
    const std::int64_t gather_end_ns = diag ? StageTracer::now_ns() : 0;
    if (tracing)
      tracer_->record(TraceStage::kGather, batch_id, mb.input_nodes().size(), sample_end_ns,
                      gather_end_ns);
    if (worker.heart != nullptr) worker.heart->beat();

    Tensor logits = worker.model->forward(mb, x);
    const std::int64_t forward_end_ns = diag ? StageTracer::now_ns() : 0;
    if (tracing)
      tracer_->record(TraceStage::kForward, batch_id, batch.size(), gather_end_ns,
                      forward_end_ns);
    if (worker.heart != nullptr) worker.heart->beat();

    const auto completion = std::chrono::steady_clock::now();
    const auto batch_seeds = static_cast<std::int64_t>(combined.size());
    const auto batch_requests = static_cast<std::int64_t>(batch.size());
    m_batches_->add(1);
    m_batch_requests_->add(batch_requests);
    m_seeds_->add(batch_seeds);
    m_min_batch_->set_min(static_cast<double>(batch_requests));
    m_max_batch_->set_max(static_cast<double>(batch_requests));

    std::int64_t row = 0;
    for (auto& request : batch) {
      InferenceResult result;
      const auto rows = static_cast<std::int64_t>(request.seeds.size());
      result.logits.resize(rows, logits.cols());
      for (std::int64_t r = 0; r < rows; ++r) {
        const auto src = logits.row(row + r);
        std::copy(src.begin(), src.end(), result.logits.row(r).begin());
        result.predictions.push_back(argmax_row(result.logits, r));
      }
      row += rows;
      result.latency =
          std::chrono::duration<double>(completion - request.enqueue_time).count();
      result.queue_wait =
          std::chrono::duration<double>(pickup - request.enqueue_time).count();
      result.request_id = request.id;
      result.batch_id = batch_id;
      result.batch_requests = batch_requests;
      result.batch_seeds = batch_seeds;
      m_completed_->add(1);
      m_latency_->observe_seconds(result.latency);
      m_queue_wait_->observe_seconds(result.queue_wait);
      request.promise.set_value(std::move(result));
    }
    const std::int64_t reply_end_ns = diag ? StageTracer::now_ns() : 0;
    if (tracing)
      tracer_->record(TraceStage::kReply, batch_id, batch.size(), forward_end_ns,
                      reply_end_ns);
    if (exemplars_ != nullptr) {
      // Offer every member's assembled trace; the ring's threshold
      // fast-path rejects the fast ones with one relaxed load.  Batch
      // stages are shared; only the queue span is per-request.
      RequestTrace trace;
      trace.batch_id = batch_id;
      trace.batch_requests = batch_requests;
      trace.batch_seeds = batch_seeds;
      trace.sample = {sample_begin_ns, sample_end_ns, true};
      trace.gather = {sample_end_ns, gather_end_ns, true};
      trace.forward = {gather_end_ns, forward_end_ns, true};
      trace.reply = {forward_end_ns, reply_end_ns, true};
      trace.done_ns = reply_end_ns;
      for (const auto& request : batch) {
        trace.request_id = request.id;
        trace.enqueue_ns = to_trace_ns(request.enqueue_time);
        trace.queue = {trace.enqueue_ns, pickup_ns, true};
        exemplars_->offer(trace);
      }
    }
  } catch (...) {
    for (auto& request : batch) {
      try {
        request.promise.set_exception(std::current_exception());
      } catch (const std::future_error&) {
        // promise already satisfied before the failure — nothing to do
      }
    }
  }
}

ServingSnapshot InferenceServer::stats() const {
  const MetricsSnapshot snap = registry_->snapshot();
  const auto count = [&](const char* name) {
    return static_cast<std::int64_t>(snap.value(name));
  };
  ServingSnapshot s;
  s.completed_requests = count("serving.requests_completed");
  s.rejected_requests = count("serving.requests_rejected");
  s.completed_batches = count("serving.batches");
  const Seconds uptime = uptime_.elapsed();
  if (uptime > 0.0) s.qps = static_cast<double>(s.completed_requests) / uptime;

  const auto& latency = *snap.histogram("serving.latency_ms");
  const auto& queue_wait = *snap.histogram("serving.queue_wait_ms");
  s.latency_mean = latency.mean_ms() * 1e-3;
  s.latency_p50 = latency.percentile_ms(0.50) * 1e-3;
  s.latency_p95 = latency.percentile_ms(0.95) * 1e-3;
  s.latency_p99 = latency.percentile_ms(0.99) * 1e-3;
  s.latency_max = latency.max_ms * 1e-3;
  s.queue_wait_mean = queue_wait.mean_ms() * 1e-3;
  s.queue_wait_p50 = queue_wait.percentile_ms(0.50) * 1e-3;
  s.queue_wait_p99 = queue_wait.percentile_ms(0.99) * 1e-3;
  s.queue_wait_max = queue_wait.max_ms * 1e-3;
  s.compute_mean = s.latency_mean - s.queue_wait_mean;

  if (s.completed_batches > 0) {
    s.mean_batch_requests = snap.value("serving.batch_requests_total") /
                            static_cast<double>(s.completed_batches);
  }
  s.min_batch_requests = count("serving.min_batch_requests");
  s.max_batch_requests = count("serving.max_batch_requests");

  s.cache_hits = count("serving.cache_hits");
  s.cache_misses = count("serving.cache_misses");
  const std::int64_t lookups = s.cache_hits + s.cache_misses;
  if (lookups > 0)
    s.cache_hit_rate = static_cast<double>(s.cache_hits) / static_cast<double>(lookups);
  s.device_bytes = snap.value("serving.cache_device_bytes");
  s.host_bytes = snap.value("serving.cache_host_bytes");
  return s;
}

std::string ServingSnapshot::to_string() const {
  std::string out;
  out += "requests=" + format_count(static_cast<std::uint64_t>(completed_requests));
  out += " rejected=" + format_count(static_cast<std::uint64_t>(rejected_requests));
  out += " qps=" + format_double(qps, 1);
  out += " p50=" + format_double(latency_p50 * 1e3, 3) + "ms";
  out += " p95=" + format_double(latency_p95 * 1e3, 3) + "ms";
  out += " p99=" + format_double(latency_p99 * 1e3, 3) + "ms";
  out += " queue_p99=" + format_double(queue_wait_p99 * 1e3, 3) + "ms";
  out += " compute_mean=" + format_double(compute_mean * 1e3, 3) + "ms";
  out += " batch=" + format_double(mean_batch_requests, 2);
  out += " hit_rate=" + format_double(cache_hit_rate, 3);
  return out;
}

void InferenceServer::maybe_rerank(std::int64_t gathered_rows) {
  const std::int64_t every = config_.cache_rerank_every_rows;
  if (every <= 0 || gathered_rows <= 0) return;
  if (!backend_.has_cache()) return;
  const std::int64_t total =
      rerank_rows_.fetch_add(gathered_rows, std::memory_order_relaxed) + gathered_rows;
  std::int64_t due = rerank_due_.load(std::memory_order_relaxed);
  while (total >= due + every) {
    // Claim every boundary this total crosses in one CAS so a huge
    // batch issues one re-rank, not a burst, and concurrent workers
    // never double-trigger the same crossing.
    const std::int64_t next = due + every * ((total - due) / every);
    if (!rerank_due_.compare_exchange_weak(due, next, std::memory_order_relaxed)) continue;
    traffic_reranks_.fetch_add(1, std::memory_order_relaxed);
    backend_.rerank();
    break;
  }
}

}  // namespace hyscale
