// Backend selection and the dispatched kernel entry points (DESIGN.md §8).
//
// Selection happens once, at first use: AVX2 if the TU was compiled in
// (PS2_SIMD CMake option) and the CPU reports avx2+fma, unless the PS2_SIMD
// environment variable forces the scalar path. SetSimdMode() can override
// later (ps2run --simd, equivalence tests); kernel calls read the table
// through one atomic pointer, so a swap is safe against concurrent ops.
//
// The wrappers add two backend-independent layers:
//  * reductions over more than kReduceChunk elements are split on a fixed
//    chunk grid and combined in chunk order — numerics depend only on n;
//  * ops at or above kParallelCutoff fan chunk execution out across a
//    dedicated kernel pool. Dedicated, because cluster task bodies run on
//    ThreadPool::Global() and block inside PsServer::Handle — borrowing
//    that pool for nested ParallelFor could deadlock. Kernel-pool workers
//    only ever run chunk bodies, so the pool never waits on itself.

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "linalg/kernels/kernels.h"

namespace ps2 {
namespace kernels {

#ifdef PS2_HAVE_AVX2
const KernelTable* Avx2TableImpl();  // kernels_avx2.cc
#endif

namespace {

/// True when $PS2_SIMD asks for the scalar path ("off"/"0"/"scalar"/"false",
/// case-insensitive). Any other value (or unset) means auto-detect.
bool EnvForcesScalar() {
  const char* env = std::getenv("PS2_SIMD");
  if (env == nullptr) return false;
  std::string v(env);
  for (char& c : v) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return v == "off" || v == "0" || v == "scalar" || v == "false";
}

const KernelTable* DetectBest() {
#ifdef PS2_HAVE_AVX2
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Avx2TableImpl();
  }
#endif
  return &ScalarTable();
}

std::atomic<const KernelTable*>& ActiveSlot() {
  static std::atomic<const KernelTable*> slot{
      EnvForcesScalar() ? &ScalarTable() : DetectBest()};
  return slot;
}

/// Pool used only for kernel chunk bodies; sized to the hardware but capped —
/// column blocks are memory-bandwidth-bound well before 8 threads.
ThreadPool* KernelPool() {
  static ThreadPool* pool = new ThreadPool(std::clamp<size_t>(
      std::thread::hardware_concurrency(), size_t{1}, size_t{8}));
  return pool;
}

size_t NumChunks(size_t n) { return (n + kReduceChunk - 1) / kReduceChunk; }

/// Runs fn(chunk) for every kReduceChunk-sized chunk of [0, n). Parallel
/// only at or above kParallelCutoff; chunk boundaries are fixed by n alone,
/// so the fan-out is invisible to the numerics.
template <typename Fn>
void ForEachChunk(size_t n, const Fn& fn) {
  const size_t chunks = NumChunks(n);
  if (chunks <= 1) {
    if (chunks == 1) fn(size_t{0});
    return;
  }
  if (n >= kParallelCutoff && KernelPool()->num_threads() > 1) {
    KernelPool()->ParallelFor(chunks, [&](size_t c) { fn(c); });
  } else {
    for (size_t c = 0; c < chunks; ++c) fn(c);
  }
}

/// Chunked reduction: per-chunk lane-structured partials combined in chunk
/// order. `chunk_fn(table, a+lo, n)` computes one partial.
template <typename ChunkFn>
double ReduceChunked(const double* a, size_t n, const ChunkFn& chunk_fn) {
  const KernelTable& t = Active();
  if (n <= kReduceChunk) return chunk_fn(t, a, n);
  std::vector<double> partial(NumChunks(n));
  ForEachChunk(n, [&](size_t c) {
    const size_t lo = c * kReduceChunk;
    partial[c] = chunk_fn(t, a + lo, std::min(kReduceChunk, n - lo));
  });
  double s = 0.0;
  for (double p : partial) s += p;
  return s;
}

}  // namespace

const KernelTable* Avx2Table() {
#ifdef PS2_HAVE_AVX2
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Avx2TableImpl();
  }
#endif
  return nullptr;
}

const KernelTable& Active() {
  return *ActiveSlot().load(std::memory_order_acquire);
}

SimdMode ActiveMode() {
  return std::strcmp(Active().name, "avx2") == 0 ? SimdMode::kAvx2
                                                 : SimdMode::kScalar;
}

const char* SimdModeName(SimdMode mode) {
  return mode == SimdMode::kAvx2 ? "avx2" : "scalar";
}

bool SetSimdMode(SimdMode mode) {
  const KernelTable* table =
      mode == SimdMode::kAvx2 ? Avx2Table() : &ScalarTable();
  if (table == nullptr) return false;
  ActiveSlot().store(table, std::memory_order_release);
  return true;
}

uint64_t Add(double* dst, const double* a, const double* b, size_t n) {
  const KernelTable& t = Active();
  ForEachChunk(n, [&](size_t c) {
    const size_t lo = c * kReduceChunk;
    t.add(dst + lo, a + lo, b + lo, std::min(kReduceChunk, n - lo));
  });
  return n;
}

uint64_t Sub(double* dst, const double* a, const double* b, size_t n) {
  const KernelTable& t = Active();
  ForEachChunk(n, [&](size_t c) {
    const size_t lo = c * kReduceChunk;
    t.sub(dst + lo, a + lo, b + lo, std::min(kReduceChunk, n - lo));
  });
  return n;
}

uint64_t Mul(double* dst, const double* a, const double* b, size_t n) {
  const KernelTable& t = Active();
  ForEachChunk(n, [&](size_t c) {
    const size_t lo = c * kReduceChunk;
    t.mul(dst + lo, a + lo, b + lo, std::min(kReduceChunk, n - lo));
  });
  return n;
}

uint64_t Div(double* dst, const double* a, const double* b, size_t n) {
  const KernelTable& t = Active();
  ForEachChunk(n, [&](size_t c) {
    const size_t lo = c * kReduceChunk;
    t.div(dst + lo, a + lo, b + lo, std::min(kReduceChunk, n - lo));
  });
  return n;
}

uint64_t Axpy(double* y, const double* x, double alpha, size_t n) {
  const KernelTable& t = Active();
  ForEachChunk(n, [&](size_t c) {
    const size_t lo = c * kReduceChunk;
    t.axpy(y + lo, x + lo, alpha, std::min(kReduceChunk, n - lo));
  });
  return 2 * n;
}

uint64_t Scale(double* dst, double alpha, size_t n) {
  const KernelTable& t = Active();
  ForEachChunk(n, [&](size_t c) {
    const size_t lo = c * kReduceChunk;
    t.scale(dst + lo, alpha, std::min(kReduceChunk, n - lo));
  });
  return n;
}

uint64_t Copy(double* dst, const double* src, size_t n) {
  ForEachChunk(n, [&](size_t c) {
    const size_t lo = c * kReduceChunk;
    std::memcpy(dst + lo, src + lo,
                std::min(kReduceChunk, n - lo) * sizeof(double));
  });
  return n;
}

uint64_t Fill(double* dst, double value, size_t n) {
  ForEachChunk(n, [&](size_t c) {
    const size_t lo = c * kReduceChunk;
    std::fill(dst + lo, dst + lo + std::min(kReduceChunk, n - lo), value);
  });
  return n;
}

uint64_t Dot(const double* a, const double* b, size_t n, double* out) {
  *out = ReduceChunked(a, n, [b, a](const KernelTable& t, const double* pa,
                                    size_t len) {
    return t.dot_chunk(pa, b + (pa - a), len);
  });
  return 2 * n;
}

double Sum(const double* a, size_t n) {
  return ReduceChunked(
      a, n, [](const KernelTable& t, const double* pa, size_t len) {
        return t.sum_chunk(pa, len);
      });
}

double Norm2Sq(const double* a, size_t n) {
  return ReduceChunked(
      a, n, [](const KernelTable& t, const double* pa, size_t len) {
        return t.norm2sq_chunk(pa, len);
      });
}

size_t Nnz(const double* a, size_t n) {
  const KernelTable& t = Active();
  if (n <= kReduceChunk) return t.nnz_chunk(a, n);
  std::vector<size_t> partial(NumChunks(n));
  ForEachChunk(n, [&](size_t c) {
    const size_t lo = c * kReduceChunk;
    partial[c] = t.nnz_chunk(a + lo, std::min(kReduceChunk, n - lo));
  });
  size_t count = 0;
  for (size_t p : partial) count += p;
  return count;
}

uint64_t HistAccumulate(const uint16_t* bins, const double* grad,
                        const double* hess, const uint32_t* rows,
                        size_t num_rows, uint32_t num_features,
                        uint32_t num_bins, double* grad_hist,
                        double* hess_hist) {
  Active().hist_accum(bins, grad, hess, rows, num_rows, num_features,
                      num_bins, grad_hist, hess_hist);
  return 4 * static_cast<uint64_t>(num_rows) * num_features;
}

uint64_t OptimizerStep(const OptimizerParams& p, double* w, const double* g,
                       double* s, double* v, size_t n) {
  const KernelTable& t = Active();
  ForEachChunk(n, [&](size_t c) {
    const size_t lo = c * kReduceChunk;
    t.optimizer_step(p, w + lo, g + lo, s != nullptr ? s + lo : s,
                     v != nullptr ? v + lo : v,
                     std::min(kReduceChunk, n - lo));
  });
  switch (p.rule) {
    case OptimizerRule::kSgd: return 3 * n;
    case OptimizerRule::kAdagrad: return 7 * n;
    case OptimizerRule::kRmsProp: return 8 * n;
    case OptimizerRule::kAdam: return 12 * n;
  }
  return 0;
}

}  // namespace kernels
}  // namespace ps2
