#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace perfbench {

using hyscale::MiniBatch;
using hyscale::Tensor;
using hyscale::VertexId;

namespace {

constexpr std::size_t kMaxListed = 8;

void add(std::vector<std::string>& problems, const std::string& line) {
  if (problems.size() < kMaxListed) problems.push_back(line);
  else if (problems.size() == kMaxListed) problems.push_back("... further problems omitted");
}

}  // namespace

std::vector<RefLayer> copy_sage_weights(hyscale::GnnModel& model) {
  std::vector<RefLayer> layers;
  const auto params = model.parameters();
  // SAGE layers expose exactly (W, b) each, in layer order.
  for (std::size_t i = 0; i + 1 < params.size(); i += 2) {
    const Tensor& w = params[i]->value;
    const Tensor& b = params[i + 1]->value;
    RefLayer layer;
    layer.in = w.rows() / 2;
    layer.out = w.cols();
    layer.w.assign(w.data(), w.data() + w.size());
    layer.b.assign(b.data(), b.data() + b.size());
    layers.push_back(std::move(layer));
  }
  return layers;
}

std::vector<std::vector<double>> reference_forward(const std::vector<RefLayer>& layers,
                                                   const MiniBatch& batch, const RowFn& row,
                                                   std::vector<std::string>& problems) {
  if (batch.blocks.size() != layers.size()) {
    add(problems, "reference: block count differs from layer count");
    return {};
  }
  // h[i] = features of block 0's i-th src node.
  const auto& input = batch.blocks.front().src_nodes;
  std::vector<std::vector<double>> h(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    h[i].assign(static_cast<std::size_t>(layers.front().in), 0.0);
    row(input[i], h[i]);
  }
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const auto& block = batch.blocks[l];
    const RefLayer& layer = layers[l];
    if (static_cast<std::int64_t>(h.size()) < block.num_src()) {
      add(problems, "reference: block " + std::to_string(l) + " has more src than rows");
      return {};
    }
    const bool top = l + 1 == layers.size();
    std::vector<std::vector<double>> next(static_cast<std::size_t>(block.num_dst));
    std::vector<double> agg(static_cast<std::size_t>(2 * layer.in));
    for (std::int64_t d = 0; d < block.num_dst; ++d) {
      std::fill(agg.begin(), agg.end(), 0.0);
      for (std::int64_t j = 0; j < layer.in; ++j) agg[static_cast<std::size_t>(j)] = h[d][j];
      const auto lo = block.indptr[static_cast<std::size_t>(d)];
      const auto hi = block.indptr[static_cast<std::size_t>(d) + 1];
      for (auto e = lo; e < hi; ++e) {
        const auto u = static_cast<std::size_t>(block.indices[static_cast<std::size_t>(e)]);
        for (std::int64_t j = 0; j < layer.in; ++j)
          agg[static_cast<std::size_t>(layer.in + j)] += h[u][static_cast<std::size_t>(j)];
      }
      if (hi > lo) {
        for (std::int64_t j = 0; j < layer.in; ++j)
          agg[static_cast<std::size_t>(layer.in + j)] /= static_cast<double>(hi - lo);
      }
      auto& out = next[static_cast<std::size_t>(d)];
      out.assign(layer.b.begin(), layer.b.end());
      for (std::int64_t k = 0; k < 2 * layer.in; ++k) {
        const double a = agg[static_cast<std::size_t>(k)];
        if (a == 0.0) continue;
        const double* wrow = layer.w.data() + k * layer.out;
        for (std::int64_t c = 0; c < layer.out; ++c) out[static_cast<std::size_t>(c)] += a * wrow[c];
      }
      if (!top) {
        for (double& v : out) v = std::max(v, 0.0);
      }
    }
    h = std::move(next);
  }
  return h;
}

double compare_logits(const Tensor& served, const std::vector<std::vector<double>>& reference,
                      double abs_tol, double rel_tol, const std::string& what,
                      std::vector<std::string>& problems) {
  if (served.rows() != static_cast<std::int64_t>(reference.size()) ||
      (served.rows() > 0 && served.cols() != static_cast<std::int64_t>(reference[0].size()))) {
    add(problems, what + ": served logits shape differs from the reference");
    return INFINITY;
  }
  double worst = 0.0;
  for (std::int64_t r = 0; r < served.rows(); ++r) {
    for (std::int64_t c = 0; c < served.cols(); ++c) {
      const double ref = reference[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
      const double got = served.at(r, c);
      const double err = std::abs(got - ref);
      if (!(err <= abs_tol + rel_tol * std::abs(ref))) {
        std::ostringstream line;
        line << what << ": logit [" << r << "," << c << "] served " << got << " reference "
             << ref;
        add(problems, line.str());
        return std::isfinite(err) ? std::max(worst, err) : INFINITY;
      }
      worst = std::max(worst, err);
    }
  }
  return worst;
}

void check_blocks(const MiniBatch& batch, const std::vector<int>& fanouts,
                  const AdjacencyFn& adjacency, const std::string& what,
                  std::vector<std::string>& problems) {
  if (batch.blocks.size() != fanouts.size()) {
    add(problems, what + ": block count differs from the fanouts");
    return;
  }
  const auto& top = batch.blocks.back();
  if (top.num_dst != static_cast<std::int64_t>(batch.seeds.size()) ||
      !std::equal(batch.seeds.begin(), batch.seeds.end(), top.src_nodes.begin())) {
    add(problems, what + ": top block's dst set is not the seeds");
  }
  std::vector<VertexId> adj, drawn;
  for (std::size_t l = 0; l < batch.blocks.size(); ++l) {
    const auto& block = batch.blocks[l];
    if (l + 1 < batch.blocks.size()) {
      const auto& up = batch.blocks[l + 1];
      if (block.num_dst != up.num_src() ||
          !std::equal(up.src_nodes.begin(), up.src_nodes.end(), block.src_nodes.begin())) {
        add(problems, what + ": block " + std::to_string(l) + " does not chain to the next");
      }
    }
    if (static_cast<std::int64_t>(block.indptr.size()) != block.num_dst + 1) {
      add(problems, what + ": block " + std::to_string(l) + " indptr size");
      continue;
    }
    for (std::int64_t d = 0; d < block.num_dst; ++d) {
      const VertexId v = block.src_nodes[static_cast<std::size_t>(d)];
      adj.clear();
      adjacency(v, adj);
      const auto lo = block.indptr[static_cast<std::size_t>(d)];
      const auto hi = block.indptr[static_cast<std::size_t>(d) + 1];
      const auto want = std::min<std::int64_t>(fanouts[l], static_cast<std::int64_t>(adj.size()));
      if (hi - lo != want) {
        add(problems, what + ": vertex " + std::to_string(v) + " drew " +
                          std::to_string(hi - lo) + " neighbours, expected " +
                          std::to_string(want) + " (fanout " + std::to_string(fanouts[l]) +
                          ", degree " + std::to_string(adj.size()) + ")");
      }
      drawn.clear();
      for (auto e = lo; e < hi; ++e) {
        const auto local = block.indices[static_cast<std::size_t>(e)];
        if (local < 0 || local >= block.num_src()) {
          add(problems, what + ": edge index out of range");
          continue;
        }
        const VertexId u = block.src_nodes[static_cast<std::size_t>(local)];
        if (!std::binary_search(adj.begin(), adj.end(), u)) {
          add(problems, what + ": sampled edge " + std::to_string(v) + "-" + std::to_string(u) +
                            " is not in the snapshot");
        }
        drawn.push_back(u);
      }
      std::sort(drawn.begin(), drawn.end());
      if (std::adjacent_find(drawn.begin(), drawn.end()) != drawn.end()) {
        add(problems, what + ": vertex " + std::to_string(v) + " drew a neighbour twice");
      }
    }
  }
}

void check_training(const std::vector<double>& epoch_losses, double accuracy,
                    double min_accuracy, std::vector<std::string>& problems) {
  if (epoch_losses.size() < 2) {
    add(problems, "training: fewer than two epochs");
    return;
  }
  for (double loss : epoch_losses) {
    if (!std::isfinite(loss)) add(problems, "training: non-finite loss");
  }
  if (!(epoch_losses.back() < epoch_losses.front())) {
    add(problems, "training: last epoch loss " + std::to_string(epoch_losses.back()) +
                      " is not below the first's " + std::to_string(epoch_losses.front()));
  }
  if (!(accuracy > min_accuracy)) {
    add(problems, "training: accuracy " + std::to_string(accuracy) + " not above " +
                      std::to_string(min_accuracy));
  }
}

void check_shadow(const std::vector<VertexId>& vertices,
                  const std::vector<std::vector<VertexId>>& shadow,
                  const std::vector<char>& shadow_alive, const AdjacencyFn& live,
                  const std::function<bool(VertexId)>& live_alive,
                  std::vector<std::string>& problems) {
  std::vector<VertexId> adj;
  for (VertexId v : vertices) {
    adj.clear();
    live(v, adj);
    const auto& want = shadow[static_cast<std::size_t>(v)];
    if (adj != want) {
      add(problems, "shadow: vertex " + std::to_string(v) + " has " + std::to_string(adj.size()) +
                        " live neighbours, the feed's edge set has " +
                        std::to_string(want.size()) + " (or they differ)");
    }
    if (live_alive(v) != (shadow_alive[static_cast<std::size_t>(v)] != 0)) {
      add(problems, "shadow: vertex " + std::to_string(v) + " liveness differs");
    }
  }
}

double reference_accuracy(const std::vector<std::vector<double>>& logits,
                          const std::vector<VertexId>& seeds, const std::vector<int>& labels) {
  if (logits.empty()) return 0.0;
  std::int64_t correct = 0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const auto& row = logits[i];
    const auto best = std::max_element(row.begin(), row.end()) - row.begin();
    if (best == labels[static_cast<std::size_t>(seeds[i])]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(logits.size());
}

}  // namespace perfbench
