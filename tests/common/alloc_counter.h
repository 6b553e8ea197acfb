#pragma once

// A global operator new that counts while a test asks it to. Include this
// header in exactly one source file of a test binary: it replaces that
// binary's allocation functions. Counting is process-wide, so count only
// code that allocates on the calling thread alone.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};
std::atomic<std::size_t> g_largest{0};

void Count(std::size_t n) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  std::size_t largest = g_largest.load(std::memory_order_relaxed);
  while (n > largest && !g_largest.compare_exchange_weak(
                            largest, n, std::memory_order_relaxed)) {
  }
}

void* CountedAlloc(std::size_t n) {
  Count(n);
  return std::malloc(n == 0 ? 1 : n);
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t align) {
  Count(n);
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}

/// Out of line, so that the compiler does not pair the free() with the
/// operator new it inlines next to it and warn of a mismatch.
__attribute__((noinline)) void Free(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = CountedAlignedAlloc(n, a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return operator new(n, a);
}
void operator delete(void* p) noexcept { Free(p); }
void operator delete[](void* p) noexcept { Free(p); }
void operator delete(void* p, std::size_t) noexcept { Free(p); }
void operator delete[](void* p, std::size_t) noexcept { Free(p); }
void operator delete(void* p, std::align_val_t) noexcept { Free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Free(p);
}

namespace ps2 {

/// The allocations one CountAllocs call saw.
struct AllocCount {
  uint64_t allocs = 0;
  std::size_t largest = 0;  ///< bytes of the largest one
};

/// The allocations made by `fn()`.
template <typename Fn>
AllocCount CountAllocs(Fn fn) {
  g_allocs.store(0);
  g_largest.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return {g_allocs.load(), g_largest.load()};
}

}  // namespace ps2
