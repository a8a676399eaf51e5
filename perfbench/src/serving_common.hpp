// Pieces the two serving workloads share: the sequential check phase
// (served logits against the reference forward, blocks against an
// adjacency oracle), the block checks on batches kept during load, and
// the per-layer serving metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "load.hpp"
#include "obs/telemetry.hpp"
#include "probe_backend.hpp"

namespace perfbench {

struct LogitTolerance {
  double abs_tol = 0.0;
  double rel_tol = 0.0;
};

/// Serves `requests` requests one at a time with every batch kept, and
/// checks each: blocks against `adjacency`, logits against the
/// reference forward over `row`.  Counts each request as one attempted
/// operation.  Returns the largest logit error seen.
double check_sequential(hyscale::InferenceServer& server, ProbeBackend& probe,
                        const SeedSource& seeds, int requests, const std::vector<int>& fanouts,
                        const AdjacencyFn& adjacency, const RowFn& row,
                        const std::vector<RefLayer>& layers, LogitTolerance tolerance,
                        Result& result);

/// Block checks on batches kept while load ran.  `adjacency_of` gives
/// the oracle for one kept batch; batches it returns null for (their
/// snapshot could not be pinned) are skipped.  Returns batches checked.
std::int64_t check_captured(const std::vector<CapturedBatch>& batches,
                            const std::vector<int>& fanouts,
                            const std::function<AdjacencyFn(const CapturedBatch&)>& adjacency_of,
                            Result& result);

/// Per-layer serving metrics: latency, queue wait, tail latency and
/// lateness of the open loop; acquire, sample, gather and release from
/// the probe's timings; forward from the tracer's spans inside
/// [window_begin_ns, window_end_ns).  `records` must be collected before
/// later phases overwrite the window in the tracer's rings.
void report_serving_layers(const LoadPhase& open_loop, const SessionLog& log,
                           const std::vector<hyscale::TraceRecord>& records,
                           std::int64_t window_begin_ns, std::int64_t window_end_ns,
                           Result& result);

/// Requests per batch over a phase.
double mean_batch_requests(const LoadPhase& phase);

/// Process CPU per completed query over a load phase, in ms.
double cpu_ms_per_query(const LoadPhase& phase);

/// Serving workers' CPU per completed query, acquire through release of
/// every batch the phase's `log` holds, in ms.
double worker_cpu_ms_per_query(const SessionLog& log, const LoadPhase& phase);

/// Durations in ms of the tracer's spans of `stage` that begin inside
/// [begin_ns, end_ns).
std::vector<double> span_ms(const std::vector<hyscale::TraceRecord>& records,
                            hyscale::TraceStage stage, std::int64_t begin_ns,
                            std::int64_t end_ns);

}  // namespace perfbench
