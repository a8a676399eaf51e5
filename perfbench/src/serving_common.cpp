#include "serving_common.hpp"

#include <thread>

namespace perfbench {

using hyscale::TraceRecord;
using hyscale::TraceStage;

double check_sequential(hyscale::InferenceServer& server, ProbeBackend& probe,
                        const SeedSource& seeds, int requests, const std::vector<int>& fanouts,
                        const AdjacencyFn& adjacency, const RowFn& row,
                        const std::vector<RefLayer>& layers, LogitTolerance tolerance,
                        Result& result) {
  probe.take_captures();  // drop anything kept during load
  probe.set_capture_every(1);
  double worst = 0.0;
  std::vector<std::string> problems;
  for (int i = 0; i < requests; ++i) {
    ++result.attempted;
    hyscale::InferenceResult served;
    try {
      served = server.infer(seeds());
    } catch (const std::exception&) {
      ++result.failed;
      continue;
    }
    // One request in flight at a time, so exactly one batch is kept; the
    // worker files it when it releases the snapshot, just after replying.
    std::vector<CapturedBatch> kept;
    for (int wait = 0; wait < 1000 && kept.empty(); ++wait) {
      kept = probe.take_captures();
      if (kept.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (kept.size() != 1) {
      problems.push_back("check phase: expected one batch per request, saw " +
                         std::to_string(kept.size()));
      continue;
    }
    const std::string what = "request " + std::to_string(i);
    check_blocks(kept[0].batch, fanouts, adjacency, what, problems);
    const auto reference = reference_forward(layers, kept[0].batch, row, problems);
    if (!reference.empty()) {
      worst = std::max(worst, compare_logits(served.logits, reference, tolerance.abs_tol,
                                             tolerance.rel_tol, what, problems));
    }
  }
  probe.set_capture_every(0);
  for (const auto& p : problems) result.fail_check(p);
  return worst;
}

std::int64_t check_captured(const std::vector<CapturedBatch>& batches,
                            const std::vector<int>& fanouts,
                            const std::function<AdjacencyFn(const CapturedBatch&)>& adjacency_of,
                            Result& result) {
  std::vector<std::string> problems;
  std::int64_t checked = 0;
  for (const auto& kept : batches) {
    const AdjacencyFn adjacency = adjacency_of(kept);
    if (!adjacency) continue;
    check_blocks(kept.batch, fanouts, adjacency,
                 "batch on snapshot " + std::to_string(kept.freshness), problems);
    ++checked;
  }
  for (const auto& p : problems) result.fail_check(p);
  return checked;
}

double cpu_ms_per_query(const LoadPhase& phase) {
  return phase.completed > 0 ? phase.cpu_s * 1e3 / static_cast<double>(phase.completed) : 0.0;
}

double worker_cpu_ms_per_query(const SessionLog& log, const LoadPhase& phase) {
  return phase.completed > 0 ? log.batch_cpu_s * 1e3 / static_cast<double>(phase.completed) : 0.0;
}

std::vector<double> span_ms(const std::vector<TraceRecord>& records, TraceStage stage,
                            std::int64_t begin_ns, std::int64_t end_ns) {
  std::vector<double> out;
  for (const auto& r : records) {
    if (r.stage == stage && r.begin_ns >= begin_ns && r.begin_ns < end_ns)
      out.push_back(static_cast<double>(r.end_ns - r.begin_ns) * 1e-6);
  }
  return out;
}

double mean_batch_requests(const LoadPhase& phase) {
  return phase.batches > 0.0 ? static_cast<double>(phase.completed) / phase.batches : 0.0;
}

void report_serving_layers(const LoadPhase& open_loop, const SessionLog& log,
                           const std::vector<TraceRecord>& records,
                           std::int64_t window_begin_ns, std::int64_t window_end_ns,
                           Result& result) {
  result.set_layer("serving.query_p50_ms", median(open_loop.latency_ms), "ms");
  result.set_layer("serving.queue_wait_ms", median(open_loop.queue_ms), "ms");
  result.set_layer("serving.query_p99_ms", quantile(open_loop.latency_ms, 0.99), "ms");
  result.set_layer("load.lateness_ms", quantile(open_loop.lateness_ms, 0.99), "ms");
  result.set_layer("backend.acquire_us", median(log.acquire_us), "us");
  result.set_layer("backend.release_us", median(log.release_us), "us");
  result.set_layer("sampling.sample_ms", median(log.sample_ms), "ms");
  result.set_layer("gather.ms", median(log.gather_ms), "ms");
  double gather_ms = 0.0, rows = 0.0;
  for (std::size_t i = 0; i < log.gather_ms.size(); ++i) {
    gather_ms += log.gather_ms[i];
    rows += log.gather_rows[i];
  }
  result.set_layer("gather.ns_per_row", rows > 0.0 ? gather_ms * 1e6 / rows : 0.0, "ns");
  const auto looked_up = static_cast<double>(log.hits + log.misses);
  result.set_layer("gather.hit_rate", looked_up > 0.0 ? static_cast<double>(log.hits) / looked_up : 0.0,
             "ratio");
  result.set_layer("nn.forward_ms",
             median(span_ms(records, TraceStage::kForward, window_begin_ns, window_end_ns)),
             "ms");
}

}  // namespace perfbench
