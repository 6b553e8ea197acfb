#pragma once

// Runtime-dispatched element-wise kernels for the server-side DCV column ops
// (DESIGN.md §8). Two backends implement the same KernelTable contract: a
// portable scalar reference (kernels_scalar.cc, compiled without
// auto-vectorization or FP contraction) and an AVX2 backend
// (kernels_avx2.cc, compiled with -mavx2 -mfma on x86-64 when the PS2_SIMD
// CMake option is ON). The backend is picked once at startup — AVX2 when the
// CPU supports it, overridable with PS2_SIMD=off in the environment or
// `--simd=scalar` on the ps2run command line — and every backend produces
// bit-identical results:
//
//  * element-wise ops (add/sub/mul/div/axpy/scale/copy/fill and the
//    optimizer step) perform the same IEEE operations per element, in the
//    same order, so rounding is identical however the loop is scheduled;
//  * the delta filter's codecs (absmax/quantize/pack_fixed16/
//    dequant_fixed16) produce exact results — a max, integers, one
//    correctly rounded division or multiply per value — so any order agrees;
//  * reductions (dot/sum/norm2/nnz) are defined over a fixed lane structure:
//    kReduceLanes (16) stride-interleaved accumulators over the body —
//    laid out as 4 groups of kLaneWidth (4) lanes, i.e. four __m256d
//    accumulators c0..c3 in the AVX2 backend, so the add chains have enough
//    ILP to beat the FP-add latency wall. Combine order is fixed: groups
//    first, m[j] = (c0[j]+c2[j]) + (c1[j]+c3[j]) for each lane j (one
//    pairwise vector add tree), then lanes, (m0+m2)+(m1+m3) (the
//    extractf128/unpackhi horizontal reduce), then a sequential scalar
//    tail over the last n mod 16 elements. Both backends implement exactly
//    that order, and neither uses FMA contraction, so SIMD == scalar
//    bit-exactly (kernel_dispatch_test).
//
// One carve-out: when a result is NaN its payload/sign is unspecified.
// x86 NaN selection depends on operand order and compilers may commute
// scalar FP adds/muls, so payloads cannot be pinned from C++. Backends
// agree on *which* results are NaN; all non-NaN results (signed zeros and
// infinities included) are bit-identical.
//
// Reductions longer than kReduceChunk are further split on a fixed chunk
// grid whose partials are combined in chunk order. The chunk grid depends
// only on n — never on the backend or thread count — so results stay
// deterministic when large column blocks fan out across the kernel thread
// pool (a dedicated pool: cluster task bodies run on ThreadPool::Global()
// and block inside PsServer::Handle, so borrowing that pool could deadlock).

#include <cstddef>
#include <cstdint>

namespace ps2 {
namespace kernels {

/// Doubles per SIMD register lane group. Fixed by the widest supported
/// backend (AVX2 = 4 doubles); the scalar backend emulates the same lane
/// structure so reduction results are identical across backends.
inline constexpr size_t kLaneWidth = 4;

/// Independent accumulators per reduction: 4 register groups of kLaneWidth
/// lanes. Part of the numeric contract — changing it changes reduction
/// results and invalidates bench baselines.
inline constexpr size_t kReduceLanes = 4 * kLaneWidth;

/// Reduction chunk: partials are computed per 64Ki-element chunk and
/// combined in chunk order, independent of backend and thread count.
inline constexpr size_t kReduceChunk = size_t{1} << 16;

/// Minimum element count before a kernel fans out across the kernel thread
/// pool. Parallel execution is a pure scheduling detail: chunk boundaries
/// and combine order are fixed by n alone.
inline constexpr size_t kParallelCutoff = size_t{1} << 17;

enum class SimdMode {
  kScalar = 0,
  kAvx2 = 1,
};

/// Update rule of the optimizer step (ml/optimizer.h maps its
/// OptimizerKind onto this).
enum class OptimizerRule { kSgd, kAdagrad, kRmsProp, kAdam };

/// \brief Per-call constants of one optimizer step. Per element, with
/// gi = g + l2*w, the rules are (each product, quotient, sum and sqrt one
/// rounded IEEE op, evaluated left to right, no FMA):
///   SGD      w -= lr*gi
///   Adagrad  s += gi*gi;                    w -= lr*gi / (sqrt(s) + eps)
///   RMSProp  s = d*s + (1-d)*gi*gi;         w -= lr*gi / (sqrt(s) + eps)
///   Adam     s = d*s + (1-d)*gi*gi;  v = b*v + (1-b)*gi;
///            w -= lr*v / (sqrt(s) + eps)
/// with d = s_decay and b = v_decay. Adam is RMSProp's step with the
/// momentum v as numerator: its caller folds the bias corrections into lr
/// and eps (Kingma & Ba §2, last paragraph; see ml/optimizer.cc), so each
/// coordinate pays one divide.
struct OptimizerParams {
  OptimizerRule rule = OptimizerRule::kSgd;
  double lr = 0.0;
  double l2 = 0.0;
  double epsilon = 0.0;
  double s_decay = 0.0;  ///< RMSProp rho, Adam beta2 (second moment)
  double v_decay = 0.0;  ///< Adam beta1 (momentum)
};

/// \brief One backend: per-chunk primitives sharing a single numeric
/// contract. The dispatch wrappers below add chunking and threading.
struct KernelTable {
  const char* name;
  void (*add)(double* dst, const double* a, const double* b, size_t n);
  void (*sub)(double* dst, const double* a, const double* b, size_t n);
  void (*mul)(double* dst, const double* a, const double* b, size_t n);
  /// dst = a / b with b==0 mapped to 0 (server-side div is total).
  void (*div)(double* dst, const double* a, const double* b, size_t n);
  void (*axpy)(double* y, const double* x, double alpha, size_t n);
  void (*scale)(double* dst, double alpha, size_t n);
  /// Lane-structured partial reductions over one chunk (n <= kReduceChunk).
  double (*dot_chunk)(const double* a, const double* b, size_t n);
  double (*sum_chunk)(const double* a, size_t n);
  double (*norm2sq_chunk)(const double* a, size_t n);
  size_t (*nnz_chunk)(const double* a, size_t n);
  /// GBDT gradient/hessian histogram accumulate (ml/gbdt/histogram.h):
  /// for each listed row, adds grad[i]/hess[i] into slot f*num_bins +
  /// bins[i*num_features+f] for every feature f, in row-major order.
  void (*hist_accum)(const uint16_t* bins, const double* grad,
                     const double* hess, const uint32_t* rows, size_t num_rows,
                     uint32_t num_features, uint32_t num_bins,
                     double* grad_hist, double* hess_hist);
  /// One optimizer step over n coordinates (see OptimizerParams). `s` is
  /// read only by Adagrad/RMSProp/Adam, `v` only by Adam; w, g, s and v
  /// must not alias.
  void (*optimizer_step)(const OptimizerParams& p, double* w, const double* g,
                         double* s, double* v, size_t n);

  // The numeric core of the wire `delta` filter (net/filters.cc). Value
  // spans live inside byte buffers, so these take n host-order doubles at
  // `src`/`dst` with any alignment. Every result is exact, so backends agree
  // bit for bit with no lane contract.

  /// max |v| over the span into *max_abs (0 for n == 0). Returns false if
  /// any value is NaN or infinite (*max_abs is then unspecified).
  bool (*absmax)(const uint8_t* src, size_t n, double* max_abs);
  /// q[i] = round-half-away-from-zero(v[i] / step): one IEEE division, then
  /// std::llround's rounding, emulated exactly (truncate, then step away
  /// from zero when the exact remainder is >= 0.5 in magnitude) without a
  /// libm call; all q are 0 when step == 0. Requires every quotient finite
  /// with |v[i] / step| < 2^63. Returns the byte length of the zigzag
  /// LEB128 varint stream of the deltas q[i] - q[i-1] (q[-1] = 0).
  size_t (*quantize)(const uint8_t* src, size_t n, double step, int64_t* q);
  /// dst[2i..2i+1] = the low 16 bits of zigzag(q[i]), little-endian.
  void (*pack_fixed16)(const int64_t* q, size_t n, uint8_t* dst);
  /// Inverse of pack_fixed16, scaled: the n doubles at dst become
  /// unzigzag(z[i]) * scale, one IEEE multiply each.
  void (*dequant_fixed16)(const uint8_t* src, size_t n, double scale,
                          uint8_t* dst);
};

/// std::llround(x) for finite |x| < 2^63, with no libm call: truncate, then
/// step away from zero when the remainder, which is exact, reaches 0.5.
inline int64_t RoundHalfAway(double x) {
  const int64_t t = static_cast<int64_t>(x);
  const double r = x - static_cast<double>(t);
  return t + (r >= 0.5 ? 1 : 0) - (r <= -0.5 ? 1 : 0);
}

/// Zigzag map of a two's-complement value: 0, -1, 1, -2, ... -> 0, 1, 2, 3.
inline uint64_t ZigZag(uint64_t v) { return (v << 1) ^ (0 - (v >> 63)); }

/// Byte length of the LEB128 varint of v.
inline size_t VarintBytes(uint64_t v) {
  return 1 + static_cast<size_t>(63 - __builtin_clzll(v | 1)) / 7;
}

/// The portable scalar reference backend (always available).
const KernelTable& ScalarTable();

/// The AVX2 backend, or nullptr when compiled out (PS2_SIMD=OFF, non-x86)
/// or unsupported by the CPU.
const KernelTable* Avx2Table();

/// The backend selected at startup (CPU detection + $PS2_SIMD override).
const KernelTable& Active();
SimdMode ActiveMode();
const char* SimdModeName(SimdMode mode);

/// Forces a backend. Returns false (state unchanged) if unavailable.
/// Thread-compatible with concurrent kernel calls (atomic pointer swap),
/// intended for startup flags and the equivalence tests/benches.
bool SetSimdMode(SimdMode mode);

// ---------------------------------------------------------------------------
// Dispatched operations. These are the entry points the PS server column
// ops, the DCV client fallbacks, and DenseVector use. Each returns the
// scalar op count charged to the virtual cost model (unchanged from the
// pre-dispatch kernels, so virtual times and bench baselines are stable).

uint64_t Add(double* dst, const double* a, const double* b, size_t n);
uint64_t Sub(double* dst, const double* a, const double* b, size_t n);
uint64_t Mul(double* dst, const double* a, const double* b, size_t n);
/// dst = a / b with b==0 mapped to 0 (server-side div is total).
uint64_t Div(double* dst, const double* a, const double* b, size_t n);
uint64_t Axpy(double* y, const double* x, double alpha, size_t n);
uint64_t Scale(double* dst, double alpha, size_t n);
uint64_t Copy(double* dst, const double* src, size_t n);
uint64_t Fill(double* dst, double value, size_t n);
/// Returns partial dot in *out.
uint64_t Dot(const double* a, const double* b, size_t n, double* out);
double Sum(const double* a, size_t n);
double Norm2Sq(const double* a, size_t n);
size_t Nnz(const double* a, size_t n);

/// GBDT histogram accumulate (see KernelTable::hist_accum). Sequential by
/// design: rows may hit the same slot, so the accumulation order is part of
/// the numeric contract. Returns the op count (4 per row-feature pair).
uint64_t HistAccumulate(const uint16_t* bins, const double* grad,
                        const double* hess, const uint32_t* rows,
                        size_t num_rows, uint32_t num_features,
                        uint32_t num_bins, double* grad_hist,
                        double* hess_hist);

/// One optimizer step (see OptimizerParams), fanned out over the kernel
/// pool like Add. w, g, s and v must not alias; s (and v for Adam) may be
/// nullptr for rules that do not read them. Returns the op count: SGD 3n,
/// Adagrad 7n, RMSProp 8n, Adam 12n.
uint64_t OptimizerStep(const OptimizerParams& p, double* w, const double* g,
                       double* s, double* v, size_t n);

}  // namespace kernels
}  // namespace ps2
