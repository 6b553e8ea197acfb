// ps2perf: runs one benchmark workload for a wall budget and prints its raw
// measurements as one JSON object on stdout (perfbench/run.py turns them
// into the reported metrics).
//
//   ps2perf --workload lr-wide|w2v-reloc|serve-mixed --seed N --seconds S
//           [--trace 0|1] [--trace-file PATH]
//
// Untraced reps fill the budget (at least min_reps of them), and set-up is
// also timed on its own between them. With --trace 1 the untraced reps get
// half the budget, then one more rep runs with the span tracer on and its
// spans go to --trace-file as a Chrome trace.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "linalg/kernels/kernels.h"
#include "obs/trace.h"
#include "perf.h"

namespace perf {

// Per-thread span ring: large enough that no workload's traced rep wraps
// (w2v-reloc records ~72K spans in total). Rings reserve lazily-touched
// memory, so only what is recorded becomes resident.
constexpr size_t kTraceRingCapacity = size_t{1} << 18;

struct MeasuredPhase::Impl {
  std::optional<ps2::obs::SpanGuard> root;
};

MeasuredPhase::MeasuredPhase(bool traced) : impl_(std::make_unique<Impl>()) {
  if (!traced) return;
  ps2::obs::Tracer::Global().Enable(kTraceRingCapacity);
  impl_->root.emplace("perfbench", "measured");
}

MeasuredPhase::~MeasuredPhase() {
  if (!impl_->root.has_value()) return;
  impl_->root.reset();
  ps2::obs::Tracer::Global().Disable();
}

namespace {

class JsonOut {
 public:
  void Open(char bracket) {
    Sep();
    out_.push_back(bracket);
    first_ = true;
  }
  void Close(char bracket) {
    out_.push_back(bracket);
    first_ = false;
  }
  void Key(const std::string& key) {
    Sep();
    Quote(key);
    out_.push_back(':');
    first_ = true;  // the value follows without a separator
  }
  void Num(double v) {
    Sep();
    if (!std::isfinite(v)) {
      out_ += "null";
      return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
  }
  void Bool(bool v) {
    Sep();
    out_ += v ? "true" : "false";
  }
  void Str(const std::string& s) {
    Sep();
    Quote(s);
  }
  void Nums(const std::vector<double>& values) {
    Open('[');
    for (double v : values) Num(v);
    Close(']');
  }
  /// Writes `<key>` with the wall readings and `<key>_cpu` with the CPU ones.
  void ClockLists(const std::string& key, const std::vector<Clocks>& values,
                  double scale) {
    std::vector<double> wall, cpu;
    for (const Clocks& c : values) {
      wall.push_back(c.wall * scale);
      cpu.push_back(c.cpu * scale);
    }
    Key(key);
    Nums(wall);
    Key(key + "_cpu");
    Nums(cpu);
  }
  void NumMap(const std::map<std::string, double>& values) {
    Open('{');
    for (const auto& [k, v] : values) {
      Key(k);
      Num(v);
    }
    Close('}');
  }
  void NumLists(const std::map<std::string, std::vector<double>>& lists) {
    Open('{');
    for (const auto& [k, v] : lists) {
      Key(k);
      Nums(v);
    }
    Close('}');
  }
  const std::string& str() const { return out_; }

 private:
  void Sep() {
    if (!first_) out_.push_back(',');
    first_ = false;
  }
  void Quote(const std::string& s) {
    out_.push_back('"');
    for (char c : s) {
      if (c == '"' || c == '\\') out_.push_back('\\');
      out_.push_back(c);
    }
    out_.push_back('"');
  }
  std::string out_;
  bool first_ = true;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Machine-wide CPU time so far, in ticks, from the first line of
/// /proc/stat: time spent running (user, nice, system, irq, softirq), and
/// time a runnable vCPU waited while the hypervisor ran something else
/// (steal). Zeros where the kernel does not report them.
struct CpuTicks {
  double busy = 0.0;
  double steal = 0.0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0,
                     irq = 0, softirq = 0, steal = 0;
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &user, &nice, &system, &idle, &iowait, &irq,
                            &softirq, &steal);
  std::fclose(f);
  if (n == 8) {
    t.busy = static_cast<double>(user + nice + system + irq + softirq);
    t.steal = static_cast<double>(steal);
  }
  return t;
}

/// Share of the CPU time wanted between two readings that the hypervisor
/// withheld.
double StolenShare(const CpuTicks& before, const CpuTicks& after) {
  const double steal = after.steal - before.steal;
  const double wanted = after.busy - before.busy + steal;
  return wanted > 0.0 ? std::clamp(steal / wanted, 0.0, 1.0) : 0.0;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "ps2perf: %s\nusage: ps2perf --workload lr-wide|w2v-reloc|"
               "serve-mixed --seed N --seconds S [--trace 0|1] "
               "[--trace-file PATH]\n",
               why);
  return 2;
}

void PrintResult(const Options& options, const RunResult& r,
                 double peak_rss_mb, double trace_dropped) {
  JsonOut j;
  j.Open('{');
  j.Key("workload");
  j.Str(options.workload);
  j.Key("seed");
  j.Num(static_cast<double>(options.seed));
  j.Key("env");
  j.Open('{');
  j.Key("nproc");
  j.Num(static_cast<double>(std::thread::hardware_concurrency()));
  j.Key("pool_threads");
  j.Num(static_cast<double>(ps2::ThreadPool::Global()->num_threads()));
  j.Key("build_type");
  j.Str(PS2PERF_BUILD_TYPE);
  j.Key("kernels");
  j.Str(ps2::kernels::SimdModeName(ps2::kernels::ActiveMode()));
  j.Close('}');
  j.Key("attempted");
  j.Num(static_cast<double>(r.attempted));
  j.Key("failed");
  j.Num(static_cast<double>(r.failed));
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(r.input_digest));
  j.Key("input_digest");
  j.Str(digest);
  j.Key("peak_rss_mb");
  j.Num(peak_rss_mb);
  j.Key("trace_dropped");
  j.Num(trace_dropped);
  j.Key("checks");
  j.Open('{');
  for (const auto& [name, ok] : r.checks) {
    j.Key(name);
    j.Bool(ok);
  }
  j.Close('}');
  j.Key("values");
  j.NumMap(r.values);
  j.ClockLists("extra_setup_s", r.extra_setups, 1.0);
  j.Key("latencies_us");
  j.Nums(r.latencies_us);
  j.Key("series");
  j.NumLists(r.series);
  j.Key("reps");
  j.Open('[');
  for (const Rep& rep : r.reps) {
    j.Open('{');
    j.Key("traced");
    j.Bool(rep.traced);
    j.Key("setup_s");
    j.Num(rep.setup.wall);
    j.Key("setup_s_cpu");
    j.Num(rep.setup.cpu);
    j.Key("run_s");
    j.Num(rep.run.wall);
    j.Key("run_s_cpu");
    j.Num(rep.run.cpu);
    j.Key("run_s_unstolen");
    j.Num(rep.run_unstolen_s);
    j.Key("samples");
    j.Num(rep.samples);
    j.ClockLists("step_ms", rep.steps, 1e3);
    j.Key("curve");
    j.Nums(rep.curve);
    j.Key("curve_time");
    j.Nums(rep.curve_time);
    j.Key("values");
    j.NumMap(rep.values);
    j.Close('}');
  }
  j.Close(']');
  j.Close('}');
  std::printf("%s\n", j.str().c_str());
}

}  // namespace
}  // namespace perf

int main(int argc, char** argv) {
  using namespace perf;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-file") {
      options.trace_file = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload);
  if (workload == nullptr) return Usage("unknown workload");
  if (options.trace && options.trace_file.empty()) {
    return Usage("--trace 1 needs --trace-file");
  }

  RunResult result;
  const double start = NowS();
  const double untraced_budget =
      options.trace ? options.seconds / 2.0 : options.seconds;
  // After each rep, set-up is also timed on its own until set-up has taken
  // a tenth of the run so far, with at least five samples in all. Spread
  // over the whole run, their median is steady even for a set-up of a few
  // milliseconds.
  constexpr size_t kSetupSamples = 5;
  constexpr double kSetupShare = 0.1;
  double setup_spent = 0.0;
  // A new rep starts only if one more rep of the average length still ends
  // within the budget, so a run lasts about --seconds even when reps are
  // long or the machine is slow.
  for (;;) {
    const size_t reps = result.reps.size();
    const double elapsed = NowS() - start;
    if (reps >= workload->min_reps() &&
        elapsed + elapsed / static_cast<double>(reps) > untraced_budget) {
      break;
    }
    const CpuTicks ticks_before = ReadCpuTicks();
    workload->RunRep(options, /*traced=*/false, &result);
    Rep& rep = result.reps.back();
    // The steal counter ticks every 10 ms: it is read over the whole rep,
    // and its share is taken out of the measured phase.
    rep.run_unstolen_s =
        rep.run.wall * (1.0 - StolenShare(ticks_before, ReadCpuTicks()));

    setup_spent += rep.setup.wall;
    const double setup_target = kSetupShare * (NowS() - start);
    while (result.reps.size() + result.extra_setups.size() < kSetupSamples ||
           setup_spent < setup_target) {
      result.extra_setups.push_back(workload->SetupOnly(options));
      setup_spent += result.extra_setups.back().wall;
    }
  }
  // Peak memory of the untraced reps only: trace rings would inflate it.
  const double peak_rss_mb = PeakRssMb();

  double dropped = 0.0;
  if (options.trace) {
    workload->RunRep(options, /*traced=*/true, &result);
    ps2::obs::Tracer& tracer = ps2::obs::Tracer::Global();
    dropped = static_cast<double>(tracer.dropped());
    result.Check("trace_written",
                 tracer.WriteChromeTrace(options.trace_file).ok());
    result.Check("trace_no_drops", dropped == 0.0);
    tracer.Clear();
    workload->Finish(options, &result);
  }
  PrintResult(options, result, peak_rss_mb, dropped);
  return 0;
}
