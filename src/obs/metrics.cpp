#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hyscale {

std::size_t Counter::shard_index() {
  // One shard per thread, assigned round-robin on first use; 16 shards
  // cover the worker counts this stack runs (benches top out at 4-8
  // threads), and a collision only costs a shared line, not wrongness.
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t mine =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return mine;
}

const std::vector<double>& Histogram::bucket_bounds_ms() {
  static const std::vector<double> bounds = [] {
    std::vector<double> b(kBuckets);
    // 1 µs growing ~15% per bucket; bucket 127 lands near 55 s, which
    // caps anything this stack times (publish costs, request latency).
    double bound = 1e-3;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      b[i] = bound;
      bound *= 1.15;
    }
    return b;
  }();
  return bounds;
}

void Histogram::observe_ms(double ms) {
  if (!(ms >= 0.0)) ms = 0.0;  // NaN / negative guards collapse to zero
  const auto& bounds = bucket_bounds_ms();
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), ms);
  const std::size_t idx = static_cast<std::size_t>(it - bounds.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_ms_.load(std::memory_order_relaxed);
  while (!sum_ms_.compare_exchange_weak(cur, cur + ms, std::memory_order_relaxed)) {
  }
  cur = max_ms_.load(std::memory_order_relaxed);
  while (ms > cur &&
         !max_ms_.compare_exchange_weak(cur, ms, std::memory_order_relaxed)) {
  }
}

double MetricsSnapshot::HistogramView::percentile_ms(double q) const {
  if (count <= 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank target over the cumulative bucket counts: rank
  // ceil(q * n) is 1-BASED, so p50 of 4 samples lands on the 2nd.
  const std::int64_t rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(q * static_cast<double>(count))));
  const auto& bounds = Histogram::bucket_bounds_ms();
  std::int64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const std::int64_t next = cumulative + buckets[i];
    if (rank <= next) {
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      // The overflow bucket has no table bound and the bucket holding
      // the largest sample need not be full-width: cap the interpolation
      // ceiling by the exact max so p100 never over-reports.
      double upper = i < bounds.size() ? bounds[i] : max_ms;
      if (max_ms > lower && max_ms < upper) upper = max_ms;
      const double frac = static_cast<double>(rank - cumulative) /
                          static_cast<double>(buckets[i]);
      return lower + (upper - lower) * frac;
    }
    cumulative = next;
  }
  return max_ms;
}

double MetricsSnapshot::value(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end())
    throw std::out_of_range("MetricsSnapshot: no scalar instrument '" + name + "'");
  return scalars_[it->second].second;
}

const MetricsSnapshot::HistogramView* MetricsSnapshot::histogram(
    const std::string& name) const {
  const auto it = hist_index_.find(name);
  return it == hist_index_.end() ? nullptr : &histograms_[it->second];
}

double MetricsSnapshot::percentile_ms(const std::string& name, double q) const {
  const HistogramView* view = histogram(name);
  if (view == nullptr)
    throw std::out_of_range("MetricsSnapshot: no histogram '" + name + "'");
  return view->percentile_ms(q);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    const Entry& entry = entries_[it->second];
    if (entry.kind != Entry::Kind::kCounter)
      throw std::invalid_argument("MetricsRegistry: '" + name + "' is not a counter");
    return counters_[entry.index];
  }
  counters_.emplace_back();
  by_name_.emplace(name, entries_.size());
  entries_.push_back({Entry::Kind::kCounter, name, counters_.size() - 1});
  return counters_.back();
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    const Entry& entry = entries_[it->second];
    if (entry.kind != Entry::Kind::kGauge)
      throw std::invalid_argument("MetricsRegistry: '" + name + "' is not a gauge");
    return gauges_[entry.index];
  }
  gauges_.emplace_back();
  by_name_.emplace(name, entries_.size());
  entries_.push_back({Entry::Kind::kGauge, name, gauges_.size() - 1});
  return gauges_.back();
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard lock(mutex_);
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    const Entry& entry = entries_[it->second];
    if (entry.kind != Entry::Kind::kHistogram)
      throw std::invalid_argument("MetricsRegistry: '" + name + "' is not a histogram");
    return histograms_[entry.index];
  }
  histograms_.emplace_back();
  by_name_.emplace(name, entries_.size());
  entries_.push_back({Entry::Kind::kHistogram, name, histograms_.size() - 1});
  return histograms_.back();
}

void MetricsRegistry::register_callback(const std::string& name, const void* owner,
                                        std::function<double()> fn) {
  std::lock_guard lock(mutex_);
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    const Entry& entry = entries_[it->second];
    if (entry.kind != Entry::Kind::kCallback)
      throw std::invalid_argument("MetricsRegistry: '" + name + "' is not a callback gauge");
    // Re-registration (a component recreated under the same registry)
    // takes the slot over, keeping the original snapshot position.
    callbacks_[entry.index] = Callback{owner, std::move(fn), 0.0};
    return;
  }
  callbacks_.push_back(Callback{owner, std::move(fn), 0.0});
  by_name_.emplace(name, entries_.size());
  entries_.push_back({Entry::Kind::kCallback, name, callbacks_.size() - 1});
}

void MetricsRegistry::detach(const void* owner) {
  std::lock_guard lock(mutex_);
  for (auto& cb : callbacks_) {
    if (cb.owner != owner || !cb.fn) continue;
    cb.frozen = cb.fn();
    cb.fn = nullptr;
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot snap;
  for (const Entry& entry : entries_) {
    switch (entry.kind) {
      case Entry::Kind::kCounter:
        snap.index_.emplace(entry.name, snap.scalars_.size());
        snap.scalars_.emplace_back(
            entry.name, static_cast<double>(counters_[entry.index].value()));
        break;
      case Entry::Kind::kGauge:
        snap.index_.emplace(entry.name, snap.scalars_.size());
        snap.scalars_.emplace_back(entry.name, gauges_[entry.index].value());
        break;
      case Entry::Kind::kCallback: {
        const Callback& cb = callbacks_[entry.index];
        snap.index_.emplace(entry.name, snap.scalars_.size());
        snap.scalars_.emplace_back(entry.name, cb.fn ? cb.fn() : cb.frozen);
        break;
      }
      case Entry::Kind::kHistogram: {
        const Histogram& h = histograms_[entry.index];
        MetricsSnapshot::HistogramView view;
        view.name = entry.name;
        view.buckets.resize(Histogram::kBuckets + 1);
        for (std::size_t i = 0; i <= Histogram::kBuckets; ++i)
          view.buckets[i] = h.bucket(i);
        view.sum_ms = h.sum_ms();
        view.max_ms = h.max_ms();
        // Derive the count from the copied buckets rather than the live
        // count_ so the view is internally consistent even if an
        // observe lands mid-copy.
        view.count = 0;
        for (const std::int64_t c : view.buckets) view.count += c;
        snap.hist_index_.emplace(entry.name, snap.histograms_.size());
        snap.histograms_.push_back(std::move(view));
        break;
      }
    }
  }
  return snap;
}

}  // namespace hyscale
