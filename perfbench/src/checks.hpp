// Output checks computed apart from the library: a naive GraphSAGE
// forward, sampled-block validation against an adjacency oracle, the
// live-graph versus shadow-edge-set comparison and the training
// properties.  Each check is a pure function returning the problems it
// found, so `perfbench --selftest` can feed it corrupted inputs and
// show that it fails.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "nn/model.hpp"
#include "sampling/minibatch.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

/// Weights of one SAGE layer, copied out of a model: W is
/// [2 * in, out] (self half first, neighbour-mean half second), b [out].
struct RefLayer {
  std::int64_t in = 0;
  std::int64_t out = 0;
  std::vector<double> w;
  std::vector<double> b;
};

std::vector<RefLayer> copy_sage_weights(hyscale::GnnModel& model);

/// Feature row of a global vertex id, written into `out` (size f0).
using RowFn = std::function<void(hyscale::VertexId, std::vector<double>& out)>;

/// Naive SAGE forward over `batch`'s blocks in double precision: ReLU
/// between layers, raw logits on top.  Returns [seeds, classes].  Adds
/// a problem and returns an empty result when the blocks do not chain.
std::vector<std::vector<double>> reference_forward(const std::vector<RefLayer>& layers,
                                                   const hyscale::MiniBatch& batch,
                                                   const RowFn& row,
                                                   std::vector<std::string>& problems);

/// Served logits against the reference: |served - ref| <= abs_tol +
/// rel_tol * |ref| element-wise.  Returns the largest absolute error.
double compare_logits(const hyscale::Tensor& served,
                      const std::vector<std::vector<double>>& reference, double abs_tol,
                      double rel_tol, const std::string& what,
                      std::vector<std::string>& problems);

/// Live adjacency of a vertex (sorted ascending) into `out`.
using AdjacencyFn = std::function<void(hyscale::VertexId, std::vector<hyscale::VertexId>& out)>;

/// Every sampled edge exists in `adjacency`; every dst draws exactly
/// min(fanout, degree) distinct neighbours (sampling without
/// replacement); the top block's dst set is the batch's seeds; each
/// block's src set starts with its dst set.  `fanouts` input layer
/// first.
void check_blocks(const hyscale::MiniBatch& batch, const std::vector<int>& fanouts,
                  const AdjacencyFn& adjacency, const std::string& what,
                  std::vector<std::string>& problems);

/// Training outcome properties: every loss finite, the last epoch's
/// loss below the first's, and accuracy above `min_accuracy`.
void check_training(const std::vector<double>& epoch_losses, double accuracy,
                    double min_accuracy, std::vector<std::string>& problems);

/// Live adjacency of each vertex in `vertices` equals `shadow[v]`
/// (both sorted); `alive` likewise.  Stops listing after a few.
void check_shadow(const std::vector<hyscale::VertexId>& vertices,
                  const std::vector<std::vector<hyscale::VertexId>>& shadow,
                  const std::vector<char>& shadow_alive, const AdjacencyFn& live,
                  const std::function<bool(hyscale::VertexId)>& live_alive,
                  std::vector<std::string>& problems);

/// Accuracy of reference-forward predictions against labels.
double reference_accuracy(const std::vector<std::vector<double>>& logits,
                          const std::vector<hyscale::VertexId>& seeds,
                          const std::vector<int>& labels);

}  // namespace perfbench
