// Hot-path gather overhaul tests (PR 8):
//   * SIMD-vs-scalar bit-identity for the dispatched kernels across odd
//     row widths and unaligned spans (the differential harness's fp32
//     guarantee depends on it);
//   * GEMM bit-identity under the force_scalar seam;
//   * int8 device rows: hit/miss value consistency, wire-byte ratio
//     (>= 3x vs fp32 at feature widths >= 12), and end-to-end logit
//     exactness against an explicitly round-tripped reference;
//   * adaptive cache re-ranking: observed-traffic admission recovers
//     the hit rate after churn, and slots freed by evict() are refilled;
//   * TSan regression: cached()/copy_if_cached() racing
//     evict()/invalidate()/rerank().
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "core/hyscale.hpp"
#include "tensor/gemm.hpp"
#include "tensor/init.hpp"
#include "tensor/simd.hpp"

namespace hyscale {
namespace {

/// Restores the dispatching backend even when an assertion fails.
struct ScalarGuard {
  ~ScalarGuard() { simd::force_scalar(false); }
};

/// 96 vertices, 32-dim features (wide enough that int8's cols + 4 wire
/// rows beat fp32's 4 * cols by more than 3x).
const Dataset& hotpath_dataset() {
  static const Dataset ds = make_community_dataset(3, 32, 32, 5);
  return ds;
}

ModelConfig hotpath_model_config() {
  ModelConfig config;
  config.kind = GnnKind::kSage;
  config.dims = {32, 16, 3};
  config.seed = 13;
  return config;
}

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-8.0f, 8.0f);
  std::vector<float> out(n);
  for (auto& v : out) v = dist(rng);
  // Salt in the awkward cases: zeros, tiny magnitudes, exact halves.
  if (n > 0) out[0] = 0.0f;
  if (n > 2) out[2] = 1e-38f;
  if (n > 4) out[4] = -2.5f;
  return out;
}

const std::int64_t kWidths[] = {1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100};
const std::size_t kOffsets[] = {0, 1, 3};

// -------------------------------------------------------------- simd kernels

TEST(Simd, BackendNameIsKnownAndForceScalarSticks) {
  ScalarGuard guard;
  const std::string name = simd::backend_name();
  EXPECT_TRUE(name == "avx2" || name == "neon" || name == "scalar") << name;
  simd::force_scalar(true);
  EXPECT_TRUE(simd::forced_scalar());
  EXPECT_STREQ(simd::backend_name(), "scalar");
  simd::force_scalar(false);
  EXPECT_FALSE(simd::forced_scalar());
}

TEST(Simd, CopyBitIdenticalAcrossWidthsAndAlignments) {
  ScalarGuard guard;
  for (const std::int64_t n : kWidths) {
    for (const std::size_t off : kOffsets) {
      const auto src = random_floats(off + static_cast<std::size_t>(n), 11u + off);
      std::vector<float> vec(static_cast<std::size_t>(n), -1.0f);
      std::vector<float> ref(static_cast<std::size_t>(n), -2.0f);
      simd::force_scalar(false);
      simd::copy(src.data() + off, vec.data(), n);
      simd::copy_scalar(src.data() + off, ref.data(), n);
      EXPECT_EQ(std::memcmp(vec.data(), ref.data(), ref.size() * sizeof(float)), 0)
          << "n=" << n << " off=" << off;
    }
  }
}

TEST(Simd, AxpyBitIdenticalAcrossWidthsAndAlignments) {
  ScalarGuard guard;
  for (const std::int64_t n : kWidths) {
    for (const std::size_t off : kOffsets) {
      const auto x = random_floats(off + static_cast<std::size_t>(n), 23u + off);
      const auto y0 = random_floats(static_cast<std::size_t>(n), 29u * off + 7u);
      std::vector<float> vec = y0;
      std::vector<float> ref = y0;
      simd::force_scalar(false);
      simd::axpy(0.773f, x.data() + off, vec.data(), n);
      simd::axpy_scalar(0.773f, x.data() + off, ref.data(), n);
      EXPECT_EQ(std::memcmp(vec.data(), ref.data(), ref.size() * sizeof(float)), 0)
          << "n=" << n << " off=" << off;
    }
  }
}

TEST(Simd, DequantBitIdenticalAcrossWidthsAndAlignments) {
  ScalarGuard guard;
  for (const std::int64_t n : kWidths) {
    for (const std::size_t off : kOffsets) {
      std::vector<std::int8_t> q(off + static_cast<std::size_t>(n));
      std::mt19937_64 rng(41u + off);
      for (auto& v : q) v = static_cast<std::int8_t>(static_cast<int>(rng() % 255) - 127);
      std::vector<float> vec(static_cast<std::size_t>(n), 1.0f);
      std::vector<float> ref(static_cast<std::size_t>(n), 2.0f);
      simd::force_scalar(false);
      simd::dequant(q.data() + off, 0.0317f, vec.data(), n);
      simd::dequant_scalar(q.data() + off, 0.0317f, ref.data(), n);
      EXPECT_EQ(std::memcmp(vec.data(), ref.data(), ref.size() * sizeof(float)), 0)
          << "n=" << n << " off=" << off;
    }
  }
}

TEST(Simd, MaxAbsBitIdenticalAcrossWidthsAndAlignments) {
  ScalarGuard guard;
  for (const std::int64_t n : kWidths) {
    for (const std::size_t off : kOffsets) {
      const auto src = random_floats(off + static_cast<std::size_t>(n), 53u + off);
      simd::force_scalar(false);
      const float vec = simd::max_abs(src.data() + off, n);
      const float ref = simd::max_abs_scalar(src.data() + off, n);
      EXPECT_EQ(std::memcmp(&vec, &ref, sizeof(float)), 0) << "n=" << n << " off=" << off;
    }
  }
}

TEST(Simd, ForcedScalarDispatchMatchesVectorDispatch) {
  // The per-call seam really flips the backend: both routes produce the
  // same bits, so the differential tests can trust either.
  ScalarGuard guard;
  const std::int64_t n = 100;
  const auto x = random_floats(static_cast<std::size_t>(n), 61);
  const auto y0 = random_floats(static_cast<std::size_t>(n), 67);
  std::vector<float> vec = y0;
  std::vector<float> forced = y0;
  simd::force_scalar(false);
  simd::axpy(-1.25f, x.data(), vec.data(), n);
  simd::force_scalar(true);
  simd::axpy(-1.25f, x.data(), forced.data(), n);
  EXPECT_EQ(std::memcmp(vec.data(), forced.data(), forced.size() * sizeof(float)), 0);
}

TEST(Simd, GemmBitIdenticalUnderForcedScalar) {
  ScalarGuard guard;
  Tensor a(7, 13);
  Tensor b(13, 9);
  Tensor c0(7, 9);
  uniform_init(a, -2.0f, 2.0f, 1);
  uniform_init(b, -2.0f, 2.0f, 2);
  uniform_init(c0, -2.0f, 2.0f, 3);

  Tensor c_vec = c0;
  simd::force_scalar(false);
  gemm(a, false, b, false, c_vec, 1.3f, 0.7f);

  Tensor c_ref = c0;
  simd::force_scalar(true);
  gemm(a, false, b, false, c_ref, 1.3f, 0.7f);

  ASSERT_EQ(c_vec.flat().size(), c_ref.flat().size());
  EXPECT_EQ(std::memcmp(c_vec.flat().data(), c_ref.flat().data(),
                        c_ref.flat().size() * sizeof(float)),
            0);
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(c_vec, c_ref), 0.0);
}

// ------------------------------------------------------------ int8 hot path

TEST(HotPathInt8, WireBytesRatioAtLeastThree) {
  const Dataset& ds = hotpath_dataset();
  ASSERT_GE(ds.features.cols(), 12);  // cols + 4 vs 4 * cols needs cols >= 12
  StaticFeatureCache fp32(ds.graph, ds.features, 8, TransferPrecision::kFp32);
  StaticFeatureCache int8(ds.graph, ds.features, 8, TransferPrecision::kInt8);
  EXPECT_GE(fp32.device_row_wire_bytes() / int8.device_row_wire_bytes(), 3.0);

  MutableFeatureStore store(ds.features);
  const double host_fp32 = store.row_wire_bytes();
  store.set_transfer_precision(TransferPrecision::kInt8);
  EXPECT_GE(host_fp32 / store.row_wire_bytes(), 3.0);
}

TEST(HotPathInt8, Fp16DeviceRowsAreRejected) {
  // The messages are PINNED: operators grep logs for them, and a silent
  // rewording (or a swapped throw site) would break the runbooks that
  // tell users which knob to change.
  const Dataset& ds = hotpath_dataset();
  try {
    StaticFeatureCache cache(ds.graph, ds.features, 8, TransferPrecision::kFp16);
    FAIL() << "fp16 device rows must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "StaticFeatureCache: fp16 device rows not implemented (use fp32 or int8)");
  }
  MutableFeatureStore store(ds.features);
  try {
    store.set_transfer_precision(TransferPrecision::kFp16);
    FAIL() << "fp16 wire precision must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "MutableFeatureStore: fp16 wire precision not implemented (use fp32 or int8)");
  }
  // A failed set leaves the store on its previous (fp32) precision.
  EXPECT_DOUBLE_EQ(store.row_wire_bytes(),
                   static_cast<double>(ds.features.cols()) * sizeof(float));
}

TEST(HotPathInt8, CacheHitMatchesHostMissExactly) {
  // One quantization rule on both sides: a row served from the pinned
  // int8 device copy must be bit-identical to the same row fetched from
  // the host through the int8 wire simulation — hit/miss composition
  // can never change logits.
  const Dataset& ds = hotpath_dataset();
  StreamingGraph stream(ds);
  stream.features().set_transfer_precision(TransferPrecision::kInt8);
  StaticFeatureCache cache(ds.graph, stream.features().base(), 16, TransferPrecision::kInt8);
  stream.attach_cache(&cache);

  const std::int64_t cols = ds.features.cols();
  for (VertexId v = 0; v < ds.graph.num_vertices(); ++v) {
    if (!cache.cached(v)) continue;
    std::vector<float> from_cache(static_cast<std::size_t>(cols));
    ASSERT_TRUE(cache.copy_if_cached(v, from_cache));
    std::vector<float> from_wire(static_cast<std::size_t>(cols));
    wire_roundtrip_row_int8(ds.features.row(v).data(), from_wire.data(), cols);
    EXPECT_EQ(std::memcmp(from_cache.data(), from_wire.data(), from_wire.size() * sizeof(float)),
              0)
        << "v=" << v;
  }
}

TEST(HotPathInt8, CachedAndUncachedGatherOfNearZeroRowAreMemcmpEqual) {
  // A row whose small negatives quantize to 0: a pinned-cache hit
  // dequantizes them to +0.0f, and the host miss path must too.
  const Dataset& ds = hotpath_dataset();
  const std::int64_t cols = ds.features.cols();
  std::vector<float> row(static_cast<std::size_t>(cols), -0.001f);
  row[0] = 2.0f;
  row[1] = 0.001f;

  StreamingGraph cached(ds);
  cached.features().set_transfer_precision(TransferPrecision::kInt8);
  StaticFeatureCache cache(ds.graph, cached.features().base(), 16, TransferPrecision::kInt8);
  cached.attach_cache(&cache);
  VertexId v = 0;
  while (!cache.cached(v)) ++v;

  StreamingGraph uncached(ds);
  uncached.features().set_transfer_precision(TransferPrecision::kInt8);
  ASSERT_TRUE(cached.update_feature(v, row));
  ASSERT_TRUE(uncached.update_feature(v, row));

  const std::vector<VertexId> nodes = {v};
  Tensor hit;
  Tensor miss;
  EXPECT_EQ(cached.gather(nodes, hit).hits, 1);
  EXPECT_EQ(uncached.gather(nodes, miss).misses, 1);
  EXPECT_EQ(std::memcmp(hit.row(0).data(), miss.row(0).data(),
                        static_cast<std::size_t>(cols) * sizeof(float)),
            0);
}

TEST(HotPathInt8, ServedLogitsMatchRoundTrippedReferenceWithinTolerance) {
  const Dataset& ds = hotpath_dataset();
  GnnModel model(hotpath_model_config());
  const ModelSnapshot snapshot(model);

  auto serve_logits = [&](TransferPrecision precision) {
    StreamingGraph stream(ds);
    ServingConfig config;  // empty fanouts = full neighborhood (exact)
    config.num_workers = 1;
    config.cache_capacity_rows = 48;  // half the graph: hits AND misses
    config.transfer_precision = precision;
    auto backend = make_streaming_backend(stream, config);
    InferenceServer server(*backend, snapshot, config);
    return server.infer({0, 17, 40, 65, 95}).logits;
  };

  const Tensor fp32 = serve_logits(TransferPrecision::kFp32);
  const Tensor int8 = serve_logits(TransferPrecision::kInt8);

  // Exactness: the int8 serve equals a forward over the explicitly
  // round-tripped feature matrix — the gather introduced exactly the
  // wire error, nothing else (hits and misses included).
  Tensor round_tripped = ds.features;
  quantize_roundtrip_int8(round_tripped);
  const std::vector<VertexId> seeds = {0, 17, 40, 65, 95};
  const MiniBatch mb = sample_full(ds.graph, seeds, model.config().num_layers());
  FeatureLoader loader(round_tripped);
  Tensor x;
  loader.load(mb, x);
  const Tensor reference = model.forward(mb, x);
  EXPECT_LE(Tensor::max_abs_diff(int8, reference), 1e-6);

  // Tolerance: int8 logits stay within the documented bound of fp32
  // (the bound BENCH_hotpath.json gates on), and fp32 serving is
  // untouched by the quantization machinery.
  const double drift = Tensor::max_abs_diff(int8, fp32);
  EXPECT_GT(drift, 0.0);
  EXPECT_LE(drift, 0.05);

  const Tensor direct = model.forward(mb, [&] {
    FeatureLoader exact(ds.features);
    Tensor xf;
    exact.load(mb, xf);
    return xf;
  }());
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(fp32, direct), 0.0);
}

// ------------------------------------------------------------- cache rerank

std::vector<VertexId> uncached_vertices(const StaticFeatureCache& cache, VertexId limit,
                                        std::size_t count) {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < limit && out.size() < count; ++v) {
    if (!cache.cached(v)) out.push_back(v);
  }
  return out;
}

/// Accepts the first edge the graph will take from a probe sequence, so
/// compact() has something to fold.
void ingest_one_edge(StreamingGraph& stream) {
  const VertexId n = stream.dataset().graph.num_vertices();
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 2; v < n; v += 7) {
      if (stream.add_edge(u, v)) return;
    }
  }
  FAIL() << "no insertable edge found";
}

TEST(CacheRerank, FoldRecoversHitRateOnShiftedWorkload) {
  const Dataset& ds = hotpath_dataset();
  StreamingGraph stream(ds);
  StaticFeatureCache cache(ds.graph, stream.features().base(), 16);
  stream.attach_cache(&cache);

  // A workload aimed squarely at vertices the degree-ordered admission
  // did NOT pin: every gather misses.
  const std::vector<VertexId> targets =
      uncached_vertices(cache, ds.graph.num_vertices(), 16);
  ASSERT_EQ(targets.size(), 16u);
  Tensor out;
  for (int i = 0; i < 20; ++i) {
    stream.gather(std::span<const VertexId>(targets.data(), targets.size()), out);
  }
  const auto before = cache.totals();
  EXPECT_EQ(before.hits, 0);
  EXPECT_GT(before.misses, 0);

  // A fold rewrites the base — and triggers the observed-traffic rerank.
  ingest_one_edge(stream);
  ASSERT_TRUE(stream.compact());
  EXPECT_EQ(cache.reranks(), 1);
  EXPECT_GT(cache.readmitted_rows(), 0);
  for (const VertexId v : targets) {
    EXPECT_TRUE(cache.cached(v)) << "v=" << v;
  }

  // The same workload now hits: post-rerank rate strictly above the
  // pre-rerank rate (the delta the bench gate asserts is >= 0).
  for (int i = 0; i < 20; ++i) {
    stream.gather(std::span<const VertexId>(targets.data(), targets.size()), out);
  }
  const auto after = cache.totals();
  const double before_rate = before.hit_rate();
  const double window_hits = static_cast<double>(after.hits - before.hits);
  const double window_total = static_cast<double>((after.hits + after.misses) -
                                                  (before.hits + before.misses));
  const double after_rate = window_hits / window_total;
  EXPECT_GT(after_rate, before_rate);
  EXPECT_DOUBLE_EQ(after_rate, 1.0);
}

TEST(CacheRerank, SlotsFreedByEvictionAreReadmitted) {
  const Dataset& ds = hotpath_dataset();
  StreamingGraph stream(ds);
  StaticFeatureCache cache(ds.graph, stream.features().base(), 8);
  stream.attach_cache(&cache);

  // Retire a pinned vertex: its slot is freed and — before rerank() —
  // would have leaked forever.
  VertexId pinned = -1;
  for (VertexId v = 0; v < ds.graph.num_vertices(); ++v) {
    if (cache.cached(v)) {
      pinned = v;
      break;
    }
  }
  ASSERT_GE(pinned, 0);
  ASSERT_TRUE(stream.remove_vertex(pinned));
  EXPECT_FALSE(cache.cached(pinned));
  EXPECT_GE(cache.evictions(), 1);

  // Make one cold vertex hot, then fold (the retraction ops are enough
  // for compact() to have work).
  const std::vector<VertexId> hot = uncached_vertices(cache, ds.graph.num_vertices(), 1);
  ASSERT_EQ(hot.size(), 1u);
  Tensor out;
  for (int i = 0; i < 10; ++i) {
    stream.gather(std::span<const VertexId>(hot.data(), hot.size()), out);
  }
  ASSERT_TRUE(stream.compact());

  EXPECT_GE(cache.readmitted_rows(), 1);
  EXPECT_TRUE(cache.cached(hot[0]));
  // The dead vertex must never re-enter, however hot its counter was.
  EXPECT_FALSE(cache.cached(pinned));
}

TEST(CacheRerank, DisabledConfigKeepsConstructionAdmission) {
  const Dataset& ds = hotpath_dataset();
  StreamingConfig config;
  config.cache_rerank = false;
  StreamingGraph stream(ds, config);
  StaticFeatureCache cache(ds.graph, stream.features().base(), 8);
  stream.attach_cache(&cache);

  const std::vector<VertexId> targets = uncached_vertices(cache, ds.graph.num_vertices(), 8);
  Tensor out;
  for (int i = 0; i < 10; ++i) {
    stream.gather(std::span<const VertexId>(targets.data(), targets.size()), out);
  }
  ingest_one_edge(stream);
  ASSERT_TRUE(stream.compact());
  EXPECT_EQ(cache.reranks(), 0);
  for (const VertexId v : targets) EXPECT_FALSE(cache.cached(v));
}

// ------------------------------------------------------------ concurrency

TEST(CacheRace, MembershipReadsRaceMutatorsCleanly) {
  // TSan regression: cached() used to read an unsynchronised bitmap
  // while evict()/invalidate() rewrote it.  Readers hammer membership
  // and row copies while a mutator cycles evict -> invalidate -> rerank.
  const Dataset& ds = hotpath_dataset();
  StaticFeatureCache cache(ds.graph, ds.features, 16);
  const VertexId n = ds.graph.num_vertices();
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> observed_hits{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      std::vector<float> row(static_cast<std::size_t>(ds.features.cols()));
      std::mt19937_64 rng(100u + static_cast<unsigned>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        const VertexId v = static_cast<VertexId>(rng() % static_cast<std::uint64_t>(n));
        if (cache.cached(v)) observed_hits.fetch_add(1, std::memory_order_relaxed);
        cache.copy_if_cached(v, row);
      }
    });
  }

  std::vector<VertexId> hot;
  for (VertexId v = n - 1; v >= 0 && hot.size() < 16; --v) hot.push_back(v);
  for (int round = 0; round < 200; ++round) {
    const VertexId ids[2] = {static_cast<VertexId>(round % n),
                             static_cast<VertexId>((round * 7) % n)};
    cache.evict(std::span<const VertexId>(ids, 2));
    cache.invalidate(std::span<const VertexId>(ids, 2));
    cache.rerank(hot);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& reader : readers) reader.join();

  EXPECT_GT(cache.reranks(), 0);
  EXPECT_GE(observed_hits.load(), 0);
}

}  // namespace
}  // namespace hyscale
