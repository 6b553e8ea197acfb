#pragma once

// Capacity search on the fixed serving rate ladder, and the nearest-rank
// percentile its probes use (every reported percentile is computed in
// perfbench/analysis.py). Header-only so the self-test checks the same code
// and ladder the driver runs.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <vector>

namespace perf {

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least p% of the sample at or below it. 0 for an empty sample.
inline double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  // The epsilon keeps p99.9 of 1000 samples at rank 999: 99.9 / 100 is not
  // exact in binary and would otherwise round the rank up.
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(sorted.size()) - 1e-9);
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

/// The rates serve_max_qps is searched over: 2k, 4k, ..., 60k qps.
inline std::vector<double> ServeLadder() {
  std::vector<double> ladder;
  for (double q = 2000; q <= 60000; q += 2000) ladder.push_back(q);
  return ladder;
}

/// Highest rung of the ascending `ladder` whose probe passes, assuming a
/// rate passes whenever a higher one does (latency only grows with load).
/// Bisects, so it probes O(log n) rungs; `probes`, when given, receives
/// every rung it tried. Returns 0 when even the lowest rung fails.
inline double MaxPassingRung(const std::vector<double>& ladder,
                             const std::function<bool(double)>& passes,
                             std::vector<double>* probes = nullptr) {
  size_t lo = 0;               // rungs below lo are known to pass
  size_t hi = ladder.size();   // rungs at or above hi are known to fail
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (probes != nullptr) probes->push_back(ladder[mid]);
    if (passes(ladder[mid])) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? 0.0 : ladder[lo - 1];
}

}  // namespace perf
