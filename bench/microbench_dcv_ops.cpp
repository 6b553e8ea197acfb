// Wall-clock microbenchmarks of the DCV operator set (google-benchmark).
// These measure the real in-process implementation cost (serialization,
// routing, server kernels), complementing the virtual-time figure benches.
//
// Besides the google-benchmark timing loops, main() always runs a
// deterministic kernel-equivalence section and writes
// BENCH_microbench_dcv_ops.json: the "det" run drives a fixed DCV workload
// through whichever kernel backend is active (honouring $PS2_SIMD) and
// records `det.*` metrics that must be IDENTICAL across dispatch modes —
// CI runs this binary with and without PS2_SIMD=off and diffs the two JSON
// files through tools/check_bench.py --tolerance 0. The det run also pushes
// a fixed payload corpus through the wire filter chain (det.filter_*: total
// wire bytes and the sum of the decoded values), so the filter codecs are
// held to the same backend-independence, and so is an owned-row exchange
// over 2,000 single-row matrices on 4 servers (det.owned_rows_sum: the sum
// of the rows pulled after fixed pushes), and a serving epoch on a 16 x 100K
// model (det.snapshot_bytes_copied: what the publish after a sparse write
// burst copies; det.serving_read_sum: the sum of 10K pinned reads through
// the frontend). `wall.*` fields record raw kernel and filter codec timings
// per backend and the owned-row exchange's and the serving epoch's times
// (informational, never gated).
// `--benchmark_filter='^$'` skips the timing loops and keeps only that
// section, which is what the equivalence CI step uses.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "dcv/dcv_context.h"
#include "linalg/kernels/kernels.h"
#include "ml/optimizer.h"
#include "linalg/sparse_vector.h"
#include "net/filters.h"
#include "ps/ps_client.h"
#include "ps/ps_master.h"
#include "serving/frontend.h"

namespace ps2 {
namespace {

struct Fixture {
  Fixture() : cluster(MakeSpec()), ctx(&cluster) {}

  static ClusterSpec MakeSpec() {
    ClusterSpec spec;
    spec.num_workers = 8;
    spec.num_servers = 8;
    return spec;
  }

  Cluster cluster;
  DcvContext ctx;
};

void BM_PushDense(benchmark::State& state) {
  Fixture f;
  const uint64_t dim = state.range(0);
  Dcv v = *f.ctx.Dense(dim, 2);
  std::vector<double> values(dim, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.Push(values));
  }
  state.SetBytesProcessed(state.iterations() * dim * 8);
}
BENCHMARK(BM_PushDense)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_PullDense(benchmark::State& state) {
  Fixture f;
  const uint64_t dim = state.range(0);
  Dcv v = *f.ctx.Dense(dim, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.Pull());
  }
  state.SetBytesProcessed(state.iterations() * dim * 8);
}
BENCHMARK(BM_PullDense)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_PullSparse(benchmark::State& state) {
  Fixture f;
  const uint64_t dim = 1000000;
  Dcv v = *f.ctx.Dense(dim, 2);
  std::vector<uint64_t> indices;
  for (uint64_t i = 0; i < static_cast<uint64_t>(state.range(0)); ++i) {
    indices.push_back(i * (dim / state.range(0)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.PullSparse(indices));
  }
  state.SetItemsProcessed(state.iterations() * indices.size());
}
BENCHMARK(BM_PullSparse)->Arg(100)->Arg(10000);

void BM_Dot(benchmark::State& state) {
  Fixture f;
  const uint64_t dim = state.range(0);
  Dcv a = *f.ctx.Dense(dim, 2);
  Dcv b = *f.ctx.Derive(a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Dot(b));
  }
  state.SetItemsProcessed(state.iterations() * dim);
}
BENCHMARK(BM_Dot)->Arg(100000)->Arg(1000000);

OptimizerOptions AdamOptions() {
  OptimizerOptions adam;
  adam.kind = OptimizerKind::kAdam;
  adam.learning_rate = 0.05;
  return adam;
}

/// The trainer's Adam zip (MakeOptimizerZip) over [w, s, v, g].
void BM_ZipAdamStyle(benchmark::State& state) {
  Fixture f;
  const uint64_t dim = state.range(0);
  Dcv w = *f.ctx.Dense(dim, 4);
  Dcv s = *f.ctx.Derive(w);
  Dcv v = *f.ctx.Derive(w);
  Dcv g = *f.ctx.Derive(w);
  auto step = std::make_shared<std::atomic<int64_t>>(0);
  int udf = f.ctx.RegisterZip(MakeOptimizerZip(AdamOptions(), step), 4);
  for (auto _ : state) {
    step->fetch_add(1);
    benchmark::DoNotOptimize(w.Zip({s, v, g}, udf));
  }
  state.SetItemsProcessed(state.iterations() * dim * 4);
}
BENCHMARK(BM_ZipAdamStyle)->Arg(100000)->Arg(1000000);

void BM_DotBatch(benchmark::State& state) {
  Fixture f;
  const uint32_t rows = 1000;
  std::vector<Dcv> embeddings = *f.ctx.DenseMatrix(100, rows, 0.1, 1);
  std::vector<AggregateEntry> pairs;
  for (uint32_t i = 0; i < static_cast<uint32_t>(state.range(0)); ++i) {
    pairs.push_back({AggKind::kDot,
                     {embeddings[i % rows].ref(),
                      embeddings[(i * 7 + 1) % rows].ref()}});
  }
  // Benchmarks the blocking round on purpose, as the serial baseline the
  // pipelined AggregateAsync numbers are compared against.
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.ctx.client()->AggregateAsync(pairs).Get());
  }
  state.SetItemsProcessed(state.iterations() * pairs.size());
}
BENCHMARK(BM_DotBatch)->Arg(512);

// ---------------------------------------------------------------------------
// Deterministic equivalence + wall-clock kernel report (see file comment).

/// Integer-only pseudo-random pattern: identical on every libm/platform,
/// unlike sin()-style fills. ~1 in 16 elements is an exact zero so the
/// div-by-zero-maps-to-zero and nnz paths are exercised.
double PatternValue(uint64_t i) {
  const uint64_t h = (i * 2654435761ull + 12345ull) % 1000003ull;
  if (h % 16 == 0) return 0.0;
  return static_cast<double>(h) / 997.0 - 500.0;
}

std::vector<double> PatternVector(uint64_t dim, uint64_t salt) {
  std::vector<double> out(dim);
  for (uint64_t i = 0; i < dim; ++i) out[i] = PatternValue(i + salt);
  return out;
}

/// Fixed DCV workload through the active backend. dim = 1M splits into
/// 131072-wide server shards — exactly kParallelCutoff, so the chunked and
/// thread-pool kernel paths both run. All sizes are fixed (PS2_BENCH_SCALE
/// does not apply): the det run must be comparable across smoke and full CI.
void DeterministicSection(bench::JsonReporter* report) {
  Fixture f;
  const uint64_t dim = uint64_t{1} << 20;
  Dcv w = *f.ctx.Dense(dim, 4);
  Dcv g = *f.ctx.Derive(w);
  Dcv u = *f.ctx.Derive(w);
  (void)w.Set(PatternVector(dim, 0));
  (void)g.Set(PatternVector(dim, 7919));

  report->AddRun("det", f.cluster, f.cluster.clock().Now());
  // Informational (deliberately NOT det.*): it differs across dispatch
  // modes, which is the point — everything det.* must not.
  report->AddField("backend_is_simd",
                   kernels::ActiveMode() == kernels::SimdMode::kAvx2 ? 1 : 0);
  report->AddField("det.dot", *w.Dot(g));
  (void)w.Axpy(g, 0.5);
  report->AddField("det.axpy_norm2", *w.Norm2());
  (void)w.Scale(0.25);
  report->AddField("det.scale_sum", *w.Sum());
  (void)u.MulOf(w, g);
  report->AddField("det.mul_sum", *u.Sum());
  (void)u.DivOf(w, g);  // g holds exact zeros -> div maps them to 0
  report->AddField("det.div_norm2", *u.Norm2());
  report->AddField("det.nnz", *u.Nnz());
  (void)u.SubOf(w, g);
  report->AddField("det.sub_sum", *u.Sum());

  // GBDT histogram kernel on a fixed pattern.
  const uint32_t num_features = 32, num_bins = 64;
  const size_t num_rows = 4096;
  std::vector<uint16_t> bins(num_rows * num_features);
  for (size_t i = 0; i < bins.size(); ++i) {
    bins[i] = static_cast<uint16_t>((i * 2654435761ull) % num_bins);
  }
  std::vector<double> grad = PatternVector(num_rows, 31);
  std::vector<double> hess = PatternVector(num_rows, 63);
  std::vector<uint32_t> rows(num_rows);
  for (size_t i = 0; i < num_rows; ++i) rows[i] = static_cast<uint32_t>(i);
  const size_t hist = static_cast<size_t>(num_features) * num_bins;
  std::vector<double> gh(hist, 0.0), hh(hist, 0.0);
  kernels::HistAccumulate(bins.data(), grad.data(), hess.data(), rows.data(),
                          num_rows, num_features, num_bins, gh.data(),
                          hh.data());
  report->AddField("det.hist_grad_sum", kernels::Sum(gh.data(), hist));
  report->AddField("det.hist_hess_norm2sq", kernels::Norm2Sq(hh.data(), hist));

  // A few server-side Adam steps (the trainer's zip) on the 131072-wide
  // shards, so the optimizer kernel runs its chunked, fanned-out path.
  Dcv s = *f.ctx.Derive(w);
  Dcv v = *f.ctx.Derive(w);
  auto step = std::make_shared<std::atomic<int64_t>>(0);
  const int adam = f.ctx.RegisterZip(MakeOptimizerZip(AdamOptions(), step), 4);
  for (int t = 0; t < 3; ++t) {
    step->fetch_add(1);
    (void)w.Zip({s, v, g}, adam);
  }
  report->AddField("det.adam_w_norm2", *w.Norm2());
}

// ---------------------------------------------------------------------------
// Wire filter codecs (net/filters.h): a fixed corpus through the full chain.

/// One request-shaped payload: [opcode][keys][gap][f64 values], with the
/// sections marked the way the PS client marks them.
struct FilterPayload {
  std::vector<uint8_t> bytes;
  std::vector<PayloadSection> sections;
};

FilterPayload MakeFilterPayload(const std::vector<uint64_t>& keys,
                                const std::vector<double>& values) {
  BufferWriter w;
  w.WriteU8(3);
  w.BeginSection(SectionKind::kKeys);
  w.WriteVarint(keys.size());
  w.WriteDeltaKeys(keys.data(), keys.size());
  w.EndSection();
  w.WriteU32(0xFEEDFACE);
  w.BeginSection(SectionKind::kF64Values);
  w.WriteF64Span(values.data(), values.size());
  w.EndSection();
  FilterPayload p;
  p.sections = w.TakeSections();
  p.bytes = w.Release();
  return p;
}

/// The det corpus: 48 payloads of 64..1984 values. Each key list is sent
/// twice (install, then ref); value spans alternate between noisy gradients
/// (fixed16 coding), smooth ramps (delta varints), exact zeros, and a
/// non-finite span every 16th payload (verbatim). Integer-only patterns keep
/// it identical on every platform.
std::vector<FilterPayload> FilterCorpus() {
  std::vector<FilterPayload> corpus;
  for (uint64_t p = 0; p < 48; ++p) {
    const size_t n = 64 + (p / 2) * 80;
    std::vector<uint64_t> keys(n);
    for (size_t i = 0; i < n; ++i) keys[i] = i * 7 + (p / 2) % 5;
    std::vector<double> values = PatternVector(n, p * 131);
    switch (p % 4) {
      case 1:
        for (size_t i = 0; i < n; ++i) values[i] = 1.0 + 1e-4 * i;
        break;
      case 2:
        for (size_t i = 0; i < n; ++i) values[i] *= 1e-3;
        break;
      case 3:
        if (p % 8 == 3) std::fill(values.begin(), values.end(), 0.0);
        break;
    }
    if (p % 16 == 15) values[n / 2] = std::numeric_limits<double>::infinity();
    corpus.push_back(MakeFilterPayload(keys, values));
  }
  return corpus;
}

/// Encodes and decodes the corpus with every filter on, through one
/// client/server key-cache pair: the total wire size and the sum of every
/// decoded value must not depend on the kernel backend.
void FilterDetSection(bench::JsonReporter* report) {
  FilterChain chain;
  ClientKeyCache client_keys;
  ServerKeyCache server_keys;
  uint64_t wire_bytes = 0;
  double decoded_sum = 0.0;
  for (const FilterPayload& p : FilterCorpus()) {
    FilterContext ectx;
    ectx.server = 0;
    ectx.client_keys = &client_keys;
    EncodedPayload enc =
        chain.Encode(p.bytes, p.sections, kFilterAll, 1, &ectx);
    const Slice wire = enc.mask == 0 ? Slice(p.bytes) : Slice(enc.wire);
    wire_bytes += wire.size();
    FilterContext dctx;
    dctx.server_keys = &server_keys;
    Result<std::vector<uint8_t>> dec = chain.Decode(wire, enc.mask, 1, &dctx);
    if (!dec.ok()) {
      std::fprintf(stderr, "filter corpus decode failed: %s\n",
                   dec.status().ToString().c_str());
      std::exit(1);
    }
    const PayloadSection& values = p.sections[1];
    for (size_t off = 0; off < values.len; off += sizeof(double)) {
      double v;
      std::memcpy(&v, dec->data() + values.offset + off, sizeof(double));
      if (std::isfinite(v)) decoded_sum += v;
    }
  }
  report->AddField("det.filter_wire_bytes", static_cast<double>(wire_bytes));
  report->AddField("det.filter_decoded_sum", decoded_sum);
}

// ---------------------------------------------------------------------------
// Owned-row exchange (DESIGN.md §13): the word2vec layout of one matrix per
// key, each homed on one server, pulled and pushed a batch of rows at a time.

struct OwnedRowsResult {
  double sum = 0.0;         ///< every value pulled by the last pass
  double ns_per_row = 0.0;  ///< wall time of one row's pull + push
};

/// 2,000 single-row, 16-wide matrices homed round-robin on 4 servers; each
/// pass pulls every row and pushes a fixed delta to it, 500 rows a batch.
/// The sum does not depend on timing or on the kernel backend.
OwnedRowsResult RunOwnedRows(int passes) {
  constexpr int kKeys = 2000;
  constexpr uint64_t kDim = 16;
  constexpr size_t kBatch = 500;
  ClusterSpec spec;
  spec.num_workers = 4;
  spec.num_servers = 4;
  Cluster cluster(spec);
  DcvContext ctx(&cluster);
  std::vector<RowRef> refs;
  for (int k = 0; k < kKeys; ++k) {
    MatrixOptions mo;
    mo.name = "owned";
    mo.dim = kDim;
    mo.reserve_rows = 1;
    mo.home_server = k % spec.num_servers;
    Result<int> id = ctx.master()->CreateMatrix(mo);
    PS2_CHECK(id.ok()) << id.status();
    refs.push_back(RowRef{*id, 0});
  }
  OwnedRowsResult out;
  std::vector<std::vector<double>> deltas(kBatch, std::vector<double>(kDim));
  const auto t0 = std::chrono::steady_clock::now();
  for (int pass = 0; pass < passes; ++pass) {
    for (size_t b = 0; b < refs.size(); b += kBatch) {
      const std::vector<RowRef> batch(refs.begin() + b,
                                      refs.begin() + b + kBatch);
      Result<std::vector<std::vector<double>>> pulled =
          ctx.client()->ReadRowsAsync(batch, RowSelector::All()).Get();
      PS2_CHECK(pulled.ok()) << pulled.status();
      for (size_t i = 0; i < kBatch; ++i) {
        for (uint64_t c = 0; c < kDim; ++c) {
          if (pass + 1 == passes) out.sum += (*pulled)[i][c];
          deltas[i][c] = PatternValue((b + i) * kDim + c + pass);
        }
      }
      PS2_CHECK_OK(ctx.client()
                       ->WriteRowsAsync(batch, deltas, RowSelector::All())
                       .Wait());
    }
  }
  out.ns_per_row = std::chrono::duration<double, std::nano>(
                       std::chrono::steady_clock::now() - t0)
                       .count() /
                   (static_cast<double>(passes) * kKeys);
  return out;
}

void OwnedRowsDetSection(bench::JsonReporter* report) {
  report->AddField("det.owned_rows_sum", RunOwnedRows(3).sum);
}

/// Best of three runs of 20 passes each.
void OwnedRowsWallSection(bench::JsonReporter* report) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < 3; ++r) {
    best = std::min(best, RunOwnedRows(20).ns_per_row);
  }
  report->AddField("wall.owned_rows_ns_per_row", best);
  std::printf("owned rows: %.0f ns per row (pull + push)\n", best);
}

// ---------------------------------------------------------------------------
// Serving epoch (DESIGN.md §10): copy-on-publish after a sparse write burst,
// then pinned reads through the coalescing frontend.

struct ServingResult {
  double read_sum = 0.0;      ///< every value the reads returned
  uint64_t bytes_copied = 0;  ///< by the publish after the burst
  double publish_ns = 0.0;    ///< wall time of that publish
  double read_ns = 0.0;       ///< wall time per read (request)
};

/// A 16 x 100K model on 4 servers: 64 keys written per row, one publish,
/// then 10K reads of 16 keys each, 8 to a batch, pinned to the new epoch.
/// Nothing but the wall times depends on timing or the kernel backend.
ServingResult RunServing() {
  constexpr uint32_t kRows = 16;
  constexpr uint64_t kDim = 100000;
  constexpr uint64_t kWriteKeys = 64;
  constexpr int kReads = 10000;
  constexpr size_t kBatch = 8;
  constexpr uint64_t kReadKeys = 16;
  ClusterSpec spec;
  spec.num_workers = 4;
  spec.num_servers = 4;
  Cluster cluster(spec);
  DcvContext ctx(&cluster);
  MatrixOptions mo;
  mo.name = "served";
  mo.dim = kDim;
  mo.reserve_rows = kRows;
  Result<int> id = ctx.master()->CreateMatrix(mo);
  PS2_CHECK(id.ok()) << id.status();
  PS2_CHECK_OK(ctx.client()->MatrixInit(*id, 0, kRows, 1.0, 7));
  ModelSnapshotManager* snapshots = ctx.master()->serving_snapshots();
  PS2_CHECK(snapshots->Publish().ok());
  for (uint32_t r = 0; r < kRows; ++r) {
    std::vector<uint64_t> keys;
    std::vector<double> values;
    for (uint64_t k = 0; k < kWriteKeys; ++k) {
      keys.push_back((r * 7919 + k * 1543) % kDim);
      values.push_back(PatternValue(r * kWriteKeys + k));
    }
    std::sort(keys.begin(), keys.end());
    PS2_CHECK_OK(ctx.client()->PushSparse(
        RowRef{*id, r}, SparseVector(std::move(keys), std::move(values))));
  }
  ServingResult out;
  auto t0 = std::chrono::steady_clock::now();
  Result<SnapshotPublishStats> published = snapshots->Publish();
  out.publish_ns = std::chrono::duration<double, std::nano>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  PS2_CHECK(published.ok()) << published.status();
  out.bytes_copied = published->bytes_copied;

  std::vector<std::vector<ServingRequest>> batches(kReads / kBatch);
  for (int i = 0; i < kReads; ++i) {
    ServingRequest req;
    req.row = RowRef{*id, static_cast<uint32_t>(i % kRows)};
    for (uint64_t k = 0; k < kReadKeys; ++k) {
      req.indices.push_back((i * 104729ull + k * 6151) % kDim);
    }
    std::sort(req.indices.begin(), req.indices.end());
    batches[i / kBatch].push_back(std::move(req));
  }
  ServingFrontend frontend(ctx.master(), ctx.client());
  PS2_CHECK_OK(frontend.PinCurrentEpoch());
  t0 = std::chrono::steady_clock::now();
  for (const std::vector<ServingRequest>& batch : batches) {
    Result<std::vector<std::vector<double>>> values =
        frontend.ServeBatch(batch);
    PS2_CHECK(values.ok()) << values.status();
    for (const std::vector<double>& v : *values) {
      for (double x : v) out.read_sum += x;
    }
  }
  out.read_ns = std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - t0)
                    .count() /
                kReads;
  return out;
}

void ServingDetSection(bench::JsonReporter* report) {
  const ServingResult r = RunServing();
  report->AddField("det.serving_read_sum", r.read_sum);
  report->AddField("det.snapshot_bytes_copied",
                   static_cast<double>(r.bytes_copied));
}

/// Best of three runs.
void ServingWallSection(bench::JsonReporter* report) {
  ServingResult best;
  best.publish_ns = best.read_ns = std::numeric_limits<double>::infinity();
  for (int r = 0; r < 3; ++r) {
    const ServingResult run = RunServing();
    best.publish_ns = std::min(best.publish_ns, run.publish_ns);
    best.read_ns = std::min(best.read_ns, run.read_ns);
  }
  report->AddField("wall.serving_publish_ns", best.publish_ns);
  report->AddField("wall.serving_read_ns", best.read_ns);
  std::printf("serving: %.0f ns per publish after a sparse burst, "
              "%.0f ns per pinned read\n",
              best.publish_ns, best.read_ns);
}

/// Best-of-N wall time of one kernel call, in nanoseconds.
template <typename Fn>
double TimeNs(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  return best;
}

/// Raw kernel dot/axpy (and, on the shard shape, the Adam step) under each
/// available backend, at two shapes:
///  * "shard": 131072 elements — the per-server block a 1M-dim DCV op
///    actually runs as on the 8-server fixture (L2-resident, where the
///    SIMD speedup target applies);
///  * "1m": one contiguous 1M-element buffer (L3/DRAM-bandwidth-bound on
///    most machines, reported for context).
/// Wall-clock and machine-dependent: informational only (not `det.`, never
/// gated), but this is where the SIMD speedup acceptance number comes from.
void WallClockSection(bench::JsonReporter* report) {
  const size_t n_total = size_t{1} << 20;
  const size_t n_shard = n_total / 8;
  std::vector<double> a = PatternVector(n_total, 1);
  std::vector<double> b = PatternVector(n_total, 2);
  std::vector<double> y(n_total, 0.0);
  const int reps = 60;
  const kernels::SimdMode before = kernels::ActiveMode();

  std::vector<double> adam_s(n_shard, 0.0), adam_v(n_shard, 0.0);

  struct Timing {
    bool ok = false;
    double dot_ns = 0.0;
    double axpy_ns = 0.0;
    double adam_ns = 0.0;
  };
  auto measure = [&](kernels::SimdMode mode, size_t n, const char* shape,
                     const char* tag) -> Timing {
    Timing t;
    if (!kernels::SetSimdMode(mode)) return t;
    t.ok = true;
    double sink = 0.0;
    t.dot_ns =
        TimeNs(reps, [&] { kernels::Dot(a.data(), b.data(), n, &sink); });
    t.axpy_ns =
        TimeNs(reps, [&] { kernels::Axpy(y.data(), a.data(), 0.5, n); });
    benchmark::DoNotOptimize(sink);
    benchmark::DoNotOptimize(y.data());
    report->AddField(std::string("wall.dot_ns.") + shape + "." + tag,
                     t.dot_ns);
    report->AddField(std::string("wall.axpy_ns.") + shape + "." + tag,
                     t.axpy_ns);
    std::printf("kernel %s @%s(%zu): dot %.0f ns, axpy %.0f ns\n", tag, shape,
                n, t.dot_ns, t.axpy_ns);
    if (n == n_shard) {
      // Adam's step on one shard; y stands in for w, a for the gradient.
      t.adam_ns = TimeNs(reps, [&] {
        ApplyOptimizerStep(AdamOptions(), 1, y.data(), a.data(),
                           adam_s.data(), adam_v.data(), n);
      });
      report->AddField(std::string("wall.adam_ns.shard.") + tag, t.adam_ns);
      std::printf("kernel %s @shard(%zu): adam %.0f ns\n", tag, n, t.adam_ns);
    }
    return t;
  };

  report->BeginRun("wall");
  const struct {
    size_t n;
    const char* shape;
  } shapes[] = {{n_shard, "shard"}, {n_total, "1m"}};
  for (const auto& s : shapes) {
    const Timing scalar =
        measure(kernels::SimdMode::kScalar, s.n, s.shape, "scalar");
    const Timing simd =
        measure(kernels::SimdMode::kAvx2, s.n, s.shape, "avx2");
    if (scalar.ok && simd.ok) {
      const double dot_x = scalar.dot_ns / simd.dot_ns;
      const double axpy_x = scalar.axpy_ns / simd.axpy_ns;
      report->AddField(std::string("wall.dot_speedup.") + s.shape, dot_x);
      report->AddField(std::string("wall.axpy_speedup.") + s.shape, axpy_x);
      std::printf("simd speedup @%s: dot %.2fx, axpy %.2fx\n", s.shape, dot_x,
                  axpy_x);
      if (s.n == n_shard) {
        const double adam_x = scalar.adam_ns / simd.adam_ns;
        report->AddField("wall.adam_speedup.shard", adam_x);
        std::printf("simd speedup @shard: adam %.2fx\n", adam_x);
      }
    }
  }
  kernels::SetSimdMode(before);
}

/// Per-value cost of the delta filter's encode and decode under each
/// backend (a noisy 64Ki-value span: the fixed16 coding lr-wide's gradients
/// take), and per-byte cost of LzCompress on a delta-coded 4Ki-value body —
/// the size and content the compress filter mostly sees, and mostly
/// discards because it does not shrink.
void FilterWallSection(bench::JsonReporter* report) {
  const size_t n = size_t{1} << 16;
  std::vector<uint64_t> keys(1);
  const FilterPayload p = MakeFilterPayload(keys, PatternVector(n, 5));
  FilterChain chain;
  FilterContext ctx;
  const int reps = 20;
  const kernels::SimdMode before = kernels::ActiveMode();
  for (kernels::SimdMode mode :
       {kernels::SimdMode::kScalar, kernels::SimdMode::kAvx2}) {
    if (!kernels::SetSimdMode(mode)) continue;
    const char* tag = kernels::SimdModeName(mode);
    EncodedPayload enc;
    const double enc_ns = TimeNs(reps, [&] {
      enc = chain.Encode(p.bytes, p.sections, kFilterDelta, 1, &ctx);
    });
    const double dec_ns = TimeNs(reps, [&] {
      benchmark::DoNotOptimize(chain.Decode(enc.wire, enc.mask, 1, &ctx));
    });
    report->AddField(std::string("wall.quant_encode_ns.") + tag, enc_ns / n);
    report->AddField(std::string("wall.quant_decode_ns.") + tag, dec_ns / n);
    std::printf("filter %s: quant encode %.2f ns/value, decode %.2f ns/value\n",
                tag, enc_ns / n, dec_ns / n);
  }
  kernels::SetSimdMode(before);
  const FilterPayload small = MakeFilterPayload(keys, PatternVector(4096, 9));
  const EncodedPayload body =
      chain.Encode(small.bytes, small.sections, kFilterDelta, 1, &ctx);
  const double lz_ns = TimeNs(
      10 * reps, [&] { benchmark::DoNotOptimize(LzCompress(body.wire)); });
  report->AddField("wall.lz_compress_ns_per_byte", lz_ns / body.wire.size());
  std::printf("filter lz compress: %.2f ns/byte over %zu bytes\n",
              lz_ns / body.wire.size(), body.wire.size());
}

}  // namespace
}  // namespace ps2

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("kernel backend (active): %s\n",
              ps2::kernels::SimdModeName(ps2::kernels::ActiveMode()));
  ps2::bench::JsonReporter report("microbench_dcv_ops");
  ps2::DeterministicSection(&report);
  ps2::FilterDetSection(&report);
  ps2::OwnedRowsDetSection(&report);
  ps2::ServingDetSection(&report);
  ps2::WallClockSection(&report);
  ps2::FilterWallSection(&report);
  ps2::OwnedRowsWallSection(&report);
  ps2::ServingWallSection(&report);
  report.Write();
  return 0;
}
