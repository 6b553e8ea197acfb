// Self-test of the driver's pure helpers: the serve_max_qps search over the
// driver's own rate ladder on synthetic latency curves, and the nearest-rank
// percentile its probes use. Exits non-zero
// on the first failure. Run by perfbench/tests/test_bench.py.

#include <cmath>
#include <cstdio>
#include <vector>

#include "ladder.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

/// M/M/1-like synthetic p99.9 latency in µs at `qps` for a pipeline that
/// saturates at `capacity`: flat service time plus a tail that explodes at
/// saturation.
double SyntheticP999Us(double qps, double capacity) {
  if (qps >= capacity) return 1e9;
  const double rho = qps / capacity;
  return 200.0 + 60.0 * std::log(1000.0) / (1.0 - rho);
}

}  // namespace

int main() {
  using perf::MaxPassingRung;
  using perf::NearestRank;
  const std::vector<double> ladder = perf::ServeLadder();

  // p99.9 <= 1 ms holds while 200 + 414/(1-rho) <= 1000, i.e. rho <= 0.482:
  // on a 50k-capacity curve that is 24.1k qps, so the answer is rung 24k.
  std::vector<double> probes;
  double best = MaxPassingRung(
      ladder, [](double q) { return SyntheticP999Us(q, 50000) <= 1000.0; },
      &probes);
  Expect(best == 24000, "synthetic curve: highest passing rung is 24000");
  Expect(probes.size() <= 6, "bisection probes at most ceil(log2(31)) rungs");

  // Exhaustive agreement with a linear scan over many capacities.
  for (double capacity = 1000; capacity <= 140000; capacity += 3700) {
    auto passes = [&](double q) {
      return SyntheticP999Us(q, capacity) <= 1000.0;
    };
    double linear = 0;
    for (double q : ladder) {
      if (passes(q)) linear = q;
    }
    Expect(MaxPassingRung(ladder, passes) == linear,
           "bisection agrees with a linear scan");
  }
  Expect(MaxPassingRung(ladder, [](double) { return false; }) == 0,
         "nothing passes -> 0");
  Expect(MaxPassingRung(ladder, [](double) { return true; }) == 60000,
         "everything passes -> top rung");

  // Shedding fails a rung even at low latency.
  auto shed_above_30k = [](double q) { return q <= 30000; };
  Expect(MaxPassingRung(ladder, shed_above_30k) == 30000,
         "shed threshold is the capacity");

  // Nearest rank: 1..1000 -> p50 = 500, p99.9 = 999, p100 = 1000.
  std::vector<double> sample;
  for (int i = 1; i <= 1000; ++i) sample.push_back(i);
  Expect(NearestRank(sample, 50) == 500, "nearest-rank p50");
  Expect(NearestRank(sample, 99.9) == 999, "nearest-rank p99.9");
  Expect(NearestRank(sample, 100) == 1000, "nearest-rank p100");
  Expect(NearestRank(sample, 0) == 1, "nearest-rank p0");
  Expect(NearestRank({}, 50) == 0, "empty sample");

  if (failures == 0) std::printf("selftest: ok\n");
  return failures == 0 ? 0 : 1;
}
