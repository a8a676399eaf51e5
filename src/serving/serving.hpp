// Umbrella header for the online inference serving subsystem.
//
//   ModelSnapshot    — immutable weights, from a live trainer or checkpoint
//   DynamicBatcher   — bounded request queue + micro-batch coalescing
//   ServingBackend   — the mode-blind data plane: acquire snapshot ->
//                      sample -> gather -> release (static / streaming /
//                      sharded implementations behind one seam)
//   InferenceServer  — worker pool over one backend, with live model
//                      hot-swap at batch boundaries; stats() reads its
//                      serving.* registry instruments back as a
//                      ServingSnapshot (latency percentiles, QPS, batch
//                      shapes, hit rate)
//   LoadGenerator    — closed-loop benchmark driver
#pragma once

#include "serving/backend.hpp"
#include "serving/batcher.hpp"
#include "serving/inference_server.hpp"
#include "serving/load_generator.hpp"
#include "serving/model_snapshot.hpp"
#include "serving/sharded_backend.hpp"
#include "serving/static_backend.hpp"
#include "serving/streaming_backend.hpp"
