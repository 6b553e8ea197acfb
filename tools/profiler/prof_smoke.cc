// The profiler smoke test's program: it spends nearly all of its CPU time
// in BurnCycles, so a profile of it must name that function.

#include <cstdint>
#include <cstdio>

__attribute__((noinline)) uint64_t BurnCycles(uint64_t n) {
  volatile uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (uint64_t i = 0; i < n; ++i) x = x * 6364136223846793005ULL + i;
  return x;
}

int main() {
  uint64_t sum = 0;
  for (int round = 0; round < 20; ++round) sum += BurnCycles(20'000'000);
  std::printf("%llu\n", static_cast<unsigned long long>(sum & 1));
  return 0;
}
