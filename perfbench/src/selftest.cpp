// perfbench --selftest: shows that every output check the workloads
// rely on passes on good data and fails on deliberately corrupted data
// — a wrong logit, a wrong feature row, a sampled edge that does not
// exist, a violated fanout bound, a neighbour drawn twice, a shadow
// edge set that disagrees with the graph, and each broken training
// property.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "checks.hpp"
#include "core/hyscale.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace hyscale;

namespace {

int g_failures = 0;

void expect(bool caught, bool want, const std::string& what,
            const std::vector<std::string>& problems) {
  const bool ok = caught == want;
  if (!ok) ++g_failures;
  std::printf("%s: %s — %s%s\n", ok ? "ok" : "FAIL", what.c_str(),
              caught ? "flagged" : "passed",
              caught && !problems.empty() ? (" (" + problems.front() + ")").c_str() : "");
}

/// A non-neighbour of `v` in [0, n), or -1.
VertexId non_neighbour(const CsrGraph& g, VertexId v) {
  const auto n = g.neighbors(v);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    if (u != v && !std::binary_search(n.begin(), n.end(), u)) return u;
  }
  return -1;
}

}  // namespace

int run_selftest() {
  MaterializeOptions materialize;
  materialize.target_vertices = 512;
  materialize.seed = kGraphSeed;
  const Dataset ds = materialize_dataset("ogbn-products", materialize);
  ModelConfig config;
  config.dims = {ds.info.f0, 32, ds.info.f2};
  GnnModel model(config);
  const auto layers = copy_sage_weights(model);
  const std::vector<int> fanouts = {10, 5};
  NeighborSampler sampler(ds.graph, fanouts, 7);
  const MiniBatch batch = sampler.sample({1, 2, 3, 5, 8, 13});
  Tensor x;
  FeatureLoader(ds.features).load(batch, x);
  const Tensor served = model.forward(batch, x);

  const AdjacencyFn csr = [&](VertexId v, std::vector<VertexId>& out) {
    const auto n = ds.graph.neighbors(v);
    out.assign(n.begin(), n.end());
  };
  const RowFn rows = [&](VertexId v, std::vector<double>& out) {
    const auto r = ds.features.row(v);
    out.assign(r.begin(), r.end());
  };
  auto logits_flagged = [&](const Tensor& logits, const RowFn& row, double abs_tol,
                            double rel_tol, std::vector<std::string>& problems) {
    const auto reference = reference_forward(layers, batch, row, problems);
    if (!reference.empty()) compare_logits(logits, reference, abs_tol, rel_tol, "logits", problems);
    return !problems.empty();
  };

  {  // reference forward, fp32
    std::vector<std::string> p;
    expect(logits_flagged(served, rows, 1e-4, 1e-4, p), false, "fp32 logits, as served", p);
    Tensor bad = served;
    bad.at(2, 5) += 1e-2f;
    p.clear();
    expect(logits_flagged(bad, rows, 1e-4, 1e-4, p), true, "fp32 logits, one logit off by 0.01", p);
    const RowFn bad_row = [&](VertexId v, std::vector<double>& out) {
      rows(v, out);
      if (v == batch.input_nodes()[3]) out[7] += 0.5;
    };
    p.clear();
    expect(logits_flagged(served, bad_row, 1e-4, 1e-4, p), true,
           "fp32 logits against a corrupted feature row", p);
  }
  {  // reference forward, int8 tolerance
    Tensor int8 = ds.features;
    quantize_roundtrip_int8(int8);
    Tensor xq;
    FeatureLoader(int8).load(batch, xq);
    const Tensor served_q = model.forward(batch, xq);
    std::vector<std::string> p;
    expect(logits_flagged(served_q, rows, 0.05, 0.0, p), false, "int8 logits within 0.05", p);
    Tensor bad = served_q;
    bad.at(0, 0) += 0.1f;
    p.clear();
    expect(logits_flagged(bad, rows, 0.05, 0.0, p), true, "int8 logits, one logit off by 0.1", p);
  }
  {  // sampled blocks
    std::vector<std::string> p;
    check_blocks(batch, fanouts, csr, "blocks", p);
    expect(!p.empty(), false, "sampled blocks, as sampled", p);

    // Input-layer block: its src set can grow without breaking the chain.
    MiniBatch fake_edge = batch;
    auto& block = fake_edge.blocks.front();
    std::size_t first = 0;  // first dst that drew at least one neighbour
    while (block.indptr[first + 1] == block.indptr[first]) ++first;
    const VertexId stranger = non_neighbour(ds.graph, block.src_nodes[first]);
    block.src_nodes.push_back(stranger);
    block.indices[static_cast<std::size_t>(block.indptr[first])] = block.num_src() - 1;
    p.clear();
    check_blocks(fake_edge, fanouts, csr, "blocks", p);
    expect(!p.empty(), true, "a sampled edge that is not in the snapshot", p);

    MiniBatch short_fanout = batch;
    auto& b0 = short_fanout.blocks.front();
    std::int64_t d = 0;  // first dst that drew at least one neighbour
    while (b0.indptr[static_cast<std::size_t>(d) + 1] == b0.indptr[static_cast<std::size_t>(d)]) ++d;
    b0.indices.erase(b0.indices.begin() + b0.indptr[static_cast<std::size_t>(d)]);
    for (auto i = static_cast<std::size_t>(d) + 1; i < b0.indptr.size(); ++i) --b0.indptr[i];
    p.clear();
    check_blocks(short_fanout, fanouts, csr, "blocks", p);
    expect(!p.empty(), true, "a dst that drew fewer neighbours than its fanout bound", p);

    MiniBatch twice = batch;
    auto& bt = twice.blocks.front();
    for (std::int64_t dd = 0; dd < bt.num_dst; ++dd) {
      const auto lo = bt.indptr[static_cast<std::size_t>(dd)];
      if (bt.indptr[static_cast<std::size_t>(dd) + 1] - lo >= 2) {
        bt.indices[static_cast<std::size_t>(lo) + 1] = bt.indices[static_cast<std::size_t>(lo)];
        break;
      }
    }
    p.clear();
    check_blocks(twice, fanouts, csr, "blocks", p);
    expect(!p.empty(), true, "a neighbour drawn twice", p);
  }
  {  // shadow edge set
    std::vector<std::vector<VertexId>> shadow(static_cast<std::size_t>(ds.num_vertices()));
    std::vector<VertexId> all;
    for (VertexId v = 0; v < ds.num_vertices(); ++v) {
      csr(v, shadow[static_cast<std::size_t>(v)]);
      all.push_back(v);
    }
    const std::vector<char> alive(static_cast<std::size_t>(ds.num_vertices()), 1);
    const auto live_alive = [](VertexId) { return true; };
    std::vector<std::string> p;
    check_shadow(all, shadow, alive, csr, live_alive, p);
    expect(!p.empty(), false, "shadow edge set equal to the graph", p);
    auto missing = shadow;
    missing[9].pop_back();
    p.clear();
    check_shadow(all, missing, alive, csr, live_alive, p);
    expect(!p.empty(), true, "shadow edge set missing one edge", p);
    auto dead = alive;
    dead[4] = 0;
    p.clear();
    check_shadow(all, shadow, dead, csr, live_alive, p);
    expect(!p.empty(), true, "a vertex the feed retired still alive", p);
  }
  {  // training properties
    std::vector<std::string> p;
    check_training({2.0, 1.2}, 0.5, 0.2, p);
    expect(!p.empty(), false, "training: falling loss, accuracy 0.5", p);
    p.clear();
    check_training({2.0, NAN}, 0.5, 0.2, p);
    expect(!p.empty(), true, "training: non-finite loss", p);
    p.clear();
    check_training({1.2, 2.0}, 0.5, 0.2, p);
    expect(!p.empty(), true, "training: rising loss", p);
    p.clear();
    check_training({2.0, 1.2}, 1.0 / 47.0, 0.2, p);
    expect(!p.empty(), true, "training: chance accuracy", p);
  }
  std::printf("%s\n", g_failures == 0 ? "selftest passed" : "selftest FAILED");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
