// The three workloads.  Each builds its own inputs from the seed, runs
// for the requested seconds, checks its outputs and fills the result
// with its end-to-end metrics (untraced) or per-layer metrics (traced).
#pragma once

#include "common.hpp"

namespace perfbench {

Result run_serve_static(const Options& options);
Result run_stream_churn_int8(const Options& options);
Result run_train_hybrid(const Options& options);

/// Feeds each output check a deliberately corrupted input and reports
/// whether every one of them caught it.
int run_selftest();

}  // namespace perfbench
