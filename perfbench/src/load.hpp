// Query load from one process: an open-loop Poisson schedule (each
// request timed from when it was DUE, so a stall also charges the
// requests queued behind it) and a saturating phase that keeps a fixed
// number of requests outstanding.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common.hpp"
#include "serving/inference_server.hpp"

namespace perfbench {

/// Draws the next request's seed ids; called from one thread only.
using SeedSource = std::function<std::vector<hyscale::VertexId>()>;

struct LoadPhase {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;          ///< refused at submit or failed in the server
  std::int64_t completed = 0;
  double cpu_s = 0.0;               ///< process CPU over the phase
  std::vector<double> latency_ms;   ///< due (or submit) -> observed result
  std::vector<double> queue_ms;     ///< server-side enqueue -> worker pickup
  std::vector<double> lateness_ms;  ///< how late each submit ran against its due time
  double batches = 0.0;             ///< sum over requests of 1 / batch size
  std::vector<double> window_rps;   ///< saturating: completions per second, per window
};

/// Open loop: Poisson arrivals at `rate_qps` for `seconds`, then waits
/// for every accepted request.  Two benchmark threads: the submitter and
/// a collector that observes results in submit order.
LoadPhase run_open_loop(hyscale::InferenceServer& server, const SeedSource& seeds,
                        double rate_qps, double seconds, Rng& rng);

/// Saturating: keeps `outstanding` requests in flight for `seconds`
/// (below the queue capacity, so none is refused), then drains.
LoadPhase run_saturating(hyscale::InferenceServer& server, const SeedSource& seeds,
                         int outstanding, double seconds);

}  // namespace perfbench
