#include "feed.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "obs/trace.hpp"

namespace perfbench {

using hyscale::VertexId;

namespace {

// Op mix of bench_streaming's sustained_churn_slo point (README,
// "Workloads"): shares of ops, the cancel share of deletes, the ring of
// recent inserts they cancel from, and the attach edges of an arrival.
constexpr double kArriveShare = 0.05;
constexpr double kRetireShare = 0.05;
constexpr double kFeatureShare = 0.10;
constexpr double kDeleteShare = 0.40;  // the rest, 40%, inserts one edge
constexpr double kCancelShare = 0.70;
constexpr std::size_t kRecentInserts = 64;
constexpr int kAttachEdges = 3;
constexpr int kDrawAttempts = 32;
constexpr std::int64_t kProbeEvery = 8;

std::pair<VertexId, VertexId> edge_key(VertexId u, VertexId w) {
  return {std::min(u, w), std::max(u, w)};
}

}  // namespace

// ----------------------------------------------------------- FreshnessProbes

void FreshnessProbes::add(VertexId u, VertexId w, Clock::time_point accepted,
                          std::int64_t accepted_ns) {
  std::lock_guard lock(mutex_);
  probes_.push_back(Probe{u, w, accepted, accepted_ns});
  pending_.push_back(static_cast<int>(probes_.size()) - 1);
}

void FreshnessProbes::on_acquire(const hyscale::GraphVersion& version, std::vector<int>& held) {
  std::lock_guard lock(mutex_);
  std::erase_if(pending_, [&](int i) {
    return probes_[static_cast<std::size_t>(i)].done != Clock::time_point::max();
  });
  for (int i : pending_) {
    const Probe& p = probes_[static_cast<std::size_t>(i)];
    if (p.u >= version.num_vertices()) continue;
    scratch_.clear();
    version.append_neighbors(p.u, scratch_);
    if (std::binary_search(scratch_.begin(), scratch_.end(), p.w)) held.push_back(i);
  }
}

void FreshnessProbes::on_release(const std::vector<int>& held, Clock::time_point done) {
  std::lock_guard lock(mutex_);
  for (int i : held) {
    auto& slot = probes_[static_cast<std::size_t>(i)].done;
    slot = std::min(slot, done);
  }
}

std::vector<FreshnessProbes::Probe> FreshnessProbes::probes() const {
  std::lock_guard lock(mutex_);
  return probes_;
}

// ---------------------------------------------------------------- UpdateFeed

UpdateFeed::UpdateFeed(hyscale::StreamingGraph& graph, const hyscale::Dataset& dataset,
                       std::uint64_t seed, bool time_ops)
    : graph_(graph),
      base_vertices_(dataset.num_vertices()),
      dim_(dataset.features.cols()),
      rng_(seed),
      time_ops_(time_ops) {
  const auto n = static_cast<std::size_t>(base_vertices_);
  adj_.resize(n);
  for (VertexId v = 0; v < base_vertices_; ++v) {
    const auto nbrs = dataset.graph.neighbors(v);
    adj_[static_cast<std::size_t>(v)].assign(nbrs.begin(), nbrs.end());
  }
  alive_.assign(n, 1);
  touched_.assign(n, 0);
  features_.assign(dataset.features.data(), dataset.features.data() + dataset.features.size());
  row_scratch_.resize(static_cast<std::size_t>(dim_));
}

void UpdateFeed::row(VertexId v, std::vector<double>& out) const {
  const float* r = features_.data() + v * dim_;
  out.assign(r, r + dim_);
}

template <class Fn>
auto UpdateFeed::library_call(Fn&& call) {
  const auto t0 = time_ops_ ? Clock::now() : Clock::time_point{};
  const double cpu0 = count_cpu_ ? thread_cpu_seconds() : 0.0;
  auto out = call();
  if (count_cpu_) library_cpu_s_ += thread_cpu_seconds() - cpu0;
  if (time_ops_) apply_us_.push_back(us_between(t0, Clock::now()));
  return out;
}

template <class Fn>
bool UpdateFeed::timed(Fn&& call) {
  ++attempted_;
  const bool ok = library_call(std::forward<Fn>(call));
  if (!ok) ++failed_;
  return ok;
}

void UpdateFeed::touch(VertexId v) {
  if (touched_[static_cast<std::size_t>(v)]) return;
  touched_[static_cast<std::size_t>(v)] = 1;
  touched_list_.push_back(v);
}

bool UpdateFeed::linked(VertexId u, VertexId w) const {
  const auto& a = adj_[static_cast<std::size_t>(u)];
  return std::binary_search(a.begin(), a.end(), w);
}

VertexId UpdateFeed::random_alive() {
  for (int i = 0; i < kDrawAttempts; ++i) {
    const auto v = static_cast<VertexId>(rng_.below(static_cast<std::int64_t>(alive_.size())));
    if (alive_[static_cast<std::size_t>(v)]) return v;
  }
  return -1;
}

void UpdateFeed::random_row(std::vector<float>& row) {
  for (auto& x : row) x = rng_.feature();
}

bool UpdateFeed::apply_insert(VertexId u, VertexId w, FreshnessProbes* probes) {
  const bool ok = timed([&] { return graph_.add_edge(u, w); });
  touch(u);
  touch(w);
  if (!ok) return false;
  auto& au = adj_[static_cast<std::size_t>(u)];
  au.insert(std::upper_bound(au.begin(), au.end(), w), w);
  auto& aw = adj_[static_cast<std::size_t>(w)];
  aw.insert(std::upper_bound(aw.begin(), aw.end(), u), u);
  ++inserts_;
  if (probes != nullptr && u < base_vertices_ && w < base_vertices_ &&
      inserts_ % kProbeEvery == 0) {
    probes->add(u, w, Clock::now(), hyscale::StageTracer::now_ns());
    protected_.insert(edge_key(u, w));
  } else {
    recent_.emplace_back(u, w);
    if (recent_.size() > kRecentInserts) recent_.pop_front();
  }
  return true;
}

bool UpdateFeed::apply_delete(VertexId u, VertexId w) {
  const bool ok = timed([&] { return graph_.remove_edge(u, w); });
  touch(u);
  touch(w);
  if (!ok) return false;
  auto& au = adj_[static_cast<std::size_t>(u)];
  au.erase(std::lower_bound(au.begin(), au.end(), w));
  auto& aw = adj_[static_cast<std::size_t>(w)];
  aw.erase(std::lower_bound(aw.begin(), aw.end(), u));
  return true;
}

bool UpdateFeed::insert_random(FreshnessProbes* probes) {
  for (int i = 0; i < kDrawAttempts; ++i) {
    const VertexId u = random_alive();
    const VertexId w = random_alive();
    if (u < 0 || w < 0 || u == w || linked(u, w)) continue;
    apply_insert(u, w, probes);
    return true;
  }
  return false;
}

bool UpdateFeed::delete_edge() {
  // Most deletes cancel a recent insert (the annihilation path).
  if (rng_.unit() < kCancelShare) {
    while (!recent_.empty()) {
      const std::size_t i = static_cast<std::size_t>(rng_.below(static_cast<std::int64_t>(recent_.size())));
      const auto [u, w] = recent_[i];
      recent_.erase(recent_.begin() + static_cast<std::ptrdiff_t>(i));
      if (alive_[static_cast<std::size_t>(u)] && alive_[static_cast<std::size_t>(w)] &&
          linked(u, w)) {
        apply_delete(u, w);
        return true;
      }
    }
  }
  for (int i = 0; i < kDrawAttempts; ++i) {
    const VertexId u = random_alive();
    if (u < 0) continue;
    const auto& a = adj_[static_cast<std::size_t>(u)];
    if (a.empty()) continue;
    const VertexId w = a[static_cast<std::size_t>(rng_.below(static_cast<std::int64_t>(a.size())))];
    if (protected_.count(edge_key(u, w)) != 0) continue;
    apply_delete(u, w);
    return true;
  }
  return false;
}

void UpdateFeed::rewrite_feature() {
  const VertexId v = random_alive();
  if (v < 0) return;
  random_row(row_scratch_);
  timed([&] { return graph_.update_feature(v, row_scratch_); });
  touch(v);
  std::copy(row_scratch_.begin(), row_scratch_.end(), features_.begin() + v * dim_);
}

void UpdateFeed::arrive(FreshnessProbes* probes) {
  random_row(row_scratch_);
  ++attempted_;
  const VertexId v = library_call([&] { return graph_.add_vertex(row_scratch_); });
  if (v < 0 || v < base_vertices_ || v > static_cast<VertexId>(alive_.size()) ||
      (v < static_cast<VertexId>(alive_.size()) && alive_[static_cast<std::size_t>(v)])) {
    ++failed_;  // not a fresh or recycled streamed-in id
    return;
  }
  if (v == static_cast<VertexId>(alive_.size())) {
    adj_.emplace_back();
    alive_.push_back(0);
    touched_.push_back(0);
    features_.resize(features_.size() + static_cast<std::size_t>(dim_));
  }
  alive_[static_cast<std::size_t>(v)] = 1;
  adj_[static_cast<std::size_t>(v)].clear();
  std::copy(row_scratch_.begin(), row_scratch_.end(), features_.begin() + v * dim_);
  streamed_.push_back(v);
  touch(v);
  for (int e = 0; e < kAttachEdges; ++e) {
    for (int i = 0; i < kDrawAttempts; ++i) {
      const auto w = static_cast<VertexId>(rng_.below(base_vertices_));
      if (!alive_[static_cast<std::size_t>(w)] || linked(v, w)) continue;
      apply_insert(v, w, probes);
      break;
    }
  }
}

void UpdateFeed::retire(FreshnessProbes* probes) {
  if (streamed_.empty()) {  // as in UpdateGenerator: an insert instead
    insert_random(probes);
    return;
  }
  const auto i = static_cast<std::size_t>(rng_.below(static_cast<std::int64_t>(streamed_.size())));
  const VertexId v = streamed_[i];
  streamed_[i] = streamed_.back();
  streamed_.pop_back();
  timed([&] { return graph_.remove_vertex(v); });
  touch(v);
  for (VertexId w : adj_[static_cast<std::size_t>(v)]) {
    auto& aw = adj_[static_cast<std::size_t>(w)];
    aw.erase(std::lower_bound(aw.begin(), aw.end(), v));
    touch(w);
  }
  adj_[static_cast<std::size_t>(v)].clear();
  alive_[static_cast<std::size_t>(v)] = 0;
  std::fill_n(features_.begin() + v * dim_, dim_, 0.0f);
}

void UpdateFeed::step(FreshnessProbes* probes) {
  const double r = rng_.unit();
  if (r < kArriveShare) {
    arrive(probes);
  } else if (r < kArriveShare + kRetireShare) {
    retire(probes);
  } else if (r < kArriveShare + kRetireShare + kFeatureShare) {
    rewrite_feature();
  } else if (r < kArriveShare + kRetireShare + kFeatureShare + kDeleteShare) {
    delete_edge();
  } else {
    insert_random(probes);
  }
}

void UpdateFeed::run_fixed_rate(double ops_per_s, double seconds, FreshnessProbes* probes) {
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  for (std::int64_t k = 0;; ++k) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(static_cast<double>(k) / ops_per_s));
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    step(probes);
  }
}

UpdateFeed::FlatOut UpdateFeed::run_flat_out(std::int64_t ops) {
  // Median of half-second windows: a fold's rebase stalls some windows,
  // and the typical rate is what a writer sees most of the time.  The
  // last window, cut short by the op count, counts only if it is the
  // only one.
  constexpr double kWindowS = 0.5;
  std::vector<double> rates;
  const std::int64_t accepted_before = attempted_ - failed_;
  count_cpu_ = true;
  library_cpu_s_ = 0.0;
  std::int64_t done = 0;
  while (done < ops) {
    const std::int64_t accepted0 = attempted_ - failed_;
    const auto w0 = Clock::now();
    double elapsed = 0.0;
    while (elapsed < kWindowS && done < ops) {
      for (int i = 0; i < 64 && done < ops; ++i, ++done) step(nullptr);
      elapsed = seconds_since(w0);
    }
    if (elapsed >= kWindowS || rates.empty())
      rates.push_back(static_cast<double>(attempted_ - failed_ - accepted0) / elapsed);
  }
  count_cpu_ = false;
  const auto accepted = std::max<std::int64_t>(1, attempted_ - failed_ - accepted_before);
  return FlatOut{median(rates), library_cpu_s_ * 1e6 / static_cast<double>(accepted)};
}

}  // namespace perfbench
