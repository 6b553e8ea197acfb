#pragma once

// Shared types of the benchmark driver. A workload is run as a sequence of
// repetitions ("reps"); each rep sets the system up from scratch, runs the
// measured phase once and checks its outputs. main.cpp decides how many reps
// fit in the time budget and which one is traced; run.py turns the raw
// numbers this driver prints into the reported metrics.

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perf {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< wall budget of the measured reps
  bool trace = false;     ///< add one traced rep (and the serving ladder)
  std::string trace_file;
};

/// CPU seconds used so far by all threads of this process.
inline double CpuNowS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// \brief A reading of both clocks every duration is measured on: wall
/// seconds, and CPU seconds of all threads of this process. On a shared VM
/// the CPU clock excludes time the host takes the vCPUs away, which can
/// stretch the wall clock several-fold for minutes at a time.
struct Clocks {
  double wall = 0.0;
  double cpu = 0.0;

  static Clocks Now() { return {NowS(), CpuNowS()}; }
  Clocks operator-(const Clocks& o) const {
    return {wall - o.wall, cpu - o.cpu};
  }
  Clocks& operator+=(const Clocks& o) {
    wall += o.wall;
    cpu += o.cpu;
    return *this;
  }
};

/// \brief What one rep measured.
struct Rep {
  bool traced = false;
  Clocks setup;             ///< rep start -> first stage or request
  Clocks run;               ///< the measured phase
  double run_unstolen_s = 0.0;  ///< run.wall less the hypervisor's steal
  double samples = 0.0;     ///< work units done in the measured phase
  std::vector<Clocks> steps;               ///< per stage or slice
  std::map<std::string, double> values;    ///< virtual time, counters, loss
  std::vector<double> curve;               ///< loss per iteration
  std::vector<double> curve_time;          ///< virtual s per iteration
};

/// \brief Everything one process run measured, printed as JSON.
struct RunResult {
  std::vector<Rep> reps;
  std::vector<Clocks> extra_setups;  ///< setups made only to time them
  std::map<std::string, bool> checks;
  std::map<std::string, double> values;  ///< run-level (ladder, serving)
  std::vector<double> latencies_us;      ///< per request, first rep
  /// Raw wall-time samples of the first rep, by name (serving batches,
  /// publishes, write bursts); run.py takes their percentiles.
  std::map<std::string, std::vector<double>> series;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t input_digest = 0;

  /// Records a named check; a name checked several times must pass every
  /// time.
  void Check(const std::string& name, bool ok) {
    auto [it, fresh] = checks.emplace(name, ok);
    if (!fresh) it->second = it->second && ok;
  }
};

/// \brief One benchmark workload.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Reps a run makes even when the budget is spent (lr-wide compares two).
  virtual size_t min_reps() const { return 1; }
  /// Sets up, runs and checks one rep; appends it to `out->reps`.
  virtual void RunRep(const Options& options, bool traced, RunResult* out) = 0;
  /// Builds the workload's inputs and system without running; returns what
  /// the set-up took. Lets a run time set-up more often than it has reps.
  virtual Clocks SetupOnly(const Options& options) = 0;
  /// Extra measurements made once per traced run (the serving ladder).
  virtual void Finish(const Options& /*options*/, RunResult* /*out*/) {}
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name);

/// Opens/closes the measured phase of a rep: when `traced`, enables the
/// tracer and wraps the phase in a root span on the calling thread, so
/// coordinator time outside any library span is attributable too.
class MeasuredPhase {
 public:
  explicit MeasuredPhase(bool traced);
  ~MeasuredPhase();
  MeasuredPhase(const MeasuredPhase&) = delete;
  MeasuredPhase& operator=(const MeasuredPhase&) = delete;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// FNV-1a over raw bytes, for input digests.
inline uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

}  // namespace perf
