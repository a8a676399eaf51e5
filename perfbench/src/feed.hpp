// The benchmark's own update feed for the streaming workload, with a
// shadow copy of the graph it writes.
//
// The feed draws only ops that are valid against its shadow, in the op
// mix of bench_streaming's sustained_churn_slo point: 40% inserts of
// absent edges between live vertices, 40% deletes of live edges (70%
// cancelling one of the last 64 inserts), 10% feature rewrites of live
// vertices, 5% vertex arrivals (add_vertex plus three inserts) and 5%
// retirements of vertices it added.  So the library must accept every
// op; a rejected op counts as failed.  After a final publish the live
// adjacency of every touched vertex must equal the shadow's.
//
// Freshness probes: every 8th insert between two dataset vertices is a
// probe.  Its acceptance time is recorded, the feed never deletes it,
// and FreshnessProbes (a VersionObserver on the serving probe) stamps
// when the first query batch whose snapshot holds it completes.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "common.hpp"
#include "probe_backend.hpp"
#include "stream/streaming_graph.hpp"

namespace perfbench {

class FreshnessProbes final : public VersionObserver {
 public:
  struct Probe {
    hyscale::VertexId u = 0;
    hyscale::VertexId w = 0;
    Clock::time_point accepted;
    std::int64_t accepted_ns = 0;  ///< StageTracer clock, to match spans
    Clock::time_point done = Clock::time_point::max();
  };

  void add(hyscale::VertexId u, hyscale::VertexId w, Clock::time_point accepted,
           std::int64_t accepted_ns);
  void on_acquire(const hyscale::GraphVersion& version, std::vector<int>& held) override;
  void on_release(const std::vector<int>& held, Clock::time_point done) override;
  std::vector<Probe> probes() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Probe> probes_;  ///< guarded by mutex_
  std::vector<int> pending_;   ///< probes no completed batch has held yet; guarded by mutex_
  std::vector<hyscale::VertexId> scratch_;  ///< guarded by mutex_
};

class UpdateFeed {
 public:
  /// `graph` (built over `dataset`) must outlive the feed.
  UpdateFeed(hyscale::StreamingGraph& graph, const hyscale::Dataset& dataset, std::uint64_t seed,
             bool time_ops);

  /// Fixed rate: `ops_per_s` drawn ops for `seconds` on the calling
  /// thread, registering probes with `probes` when not null.
  void run_fixed_rate(double ops_per_s, double seconds, FreshnessProbes* probes);
  struct FlatOut {
    double ops_per_s = 0.0;  ///< median over half-second windows of ops accepted per second
    double library_cpu_us_per_op = 0.0;  ///< thread CPU inside library calls per accepted op
  };
  /// `ops` operations, as fast as one thread can.
  FlatOut run_flat_out(std::int64_t ops);

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  /// Wall time of each library call (only when time_ops).
  const std::vector<double>& apply_us() const { return apply_us_; }
  void clear_apply_times() { apply_us_.clear(); }

  /// Shadow state, for the checks once the feed has stopped.
  const std::vector<hyscale::VertexId>& touched() const { return touched_list_; }
  const std::vector<std::vector<hyscale::VertexId>>& shadow_adjacency() const { return adj_; }
  const std::vector<char>& shadow_alive() const { return alive_; }
  /// The shadow's feature row of `v` (zeros for retired vertices).
  void row(hyscale::VertexId v, std::vector<double>& out) const;
  hyscale::VertexId shadow_vertices() const { return static_cast<hyscale::VertexId>(alive_.size()); }

 private:
  void step(FreshnessProbes* probes);
  bool insert_random(FreshnessProbes* probes);
  bool delete_edge();
  void rewrite_feature();
  void arrive(FreshnessProbes* probes);
  void retire(FreshnessProbes* probes);

  bool apply_insert(hyscale::VertexId u, hyscale::VertexId w, FreshnessProbes* probes);
  bool apply_delete(hyscale::VertexId u, hyscale::VertexId w);
  /// Runs one library call, timing it (time_ops) and adding its thread
  /// CPU to library_cpu_s_ (while running flat out).
  template <class Fn>
  auto library_call(Fn&& call);
  /// library_call for an op that reports acceptance; counts the op.
  template <class Fn>
  bool timed(Fn&& call);
  void touch(hyscale::VertexId v);
  bool linked(hyscale::VertexId u, hyscale::VertexId w) const;
  hyscale::VertexId random_alive();
  void random_row(std::vector<float>& row);

  hyscale::StreamingGraph& graph_;
  hyscale::VertexId base_vertices_;
  std::int64_t dim_;
  Rng rng_;
  bool time_ops_;
  bool count_cpu_ = false;
  double library_cpu_s_ = 0.0;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::int64_t inserts_ = 0;
  std::vector<double> apply_us_;

  std::vector<std::vector<hyscale::VertexId>> adj_;  ///< sorted live neighbours
  std::vector<char> alive_;
  std::vector<float> features_;  ///< [vertices, dim] row-major
  std::vector<char> touched_;
  std::vector<hyscale::VertexId> touched_list_;
  std::vector<hyscale::VertexId> streamed_;  ///< live vertices the feed added
  std::deque<std::pair<hyscale::VertexId, hyscale::VertexId>> recent_;  ///< cancellable inserts
  std::set<std::pair<hyscale::VertexId, hyscale::VertexId>> protected_;  ///< probe edges
  std::vector<float> row_scratch_;
};

}  // namespace perfbench
