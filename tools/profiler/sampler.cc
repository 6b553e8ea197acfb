// A SIGPROF sampling profiler, loaded into a program with LD_PRELOAD. No
// target links it: it is opt-in, for hosts without perf.
//
//   export PS2_PROF_OUT=serve.prof
//   LD_PRELOAD=build/tools/libps2prof.so .bench_build/ps2perf
//       --workload serve-mixed --seed 1 --seconds 10
//   python3 tools/profiler/ps2prof_report.py serve.prof --focus ServeBatch
//
// Every 1 ms of the process's CPU time (ITIMER_PROF, all threads; the
// kernel rounds the period up to its tick, 4 ms at 250 Hz) the kernel sends
// SIGPROF to a running thread. The handler stores that thread's stack,
// up to 48 return addresses from backtrace(), in a buffer mapped at start-up,
// and does nothing else. At exit the samples are grouped by stack and each
// frame is written as its module and offset (dladdr); a frame inside the
// extent of a dynamic symbol also carries that symbol's name. Module paths
// are written absolute, so the report script, which symbolizes the rest with
// addr2line, can open them from any directory.
//
// PS2_PROF_OUT names the output file; "%p" in it becomes the pid (default
// ps2prof.%p.txt, so preloaded child processes each write their own file).
// The buffer holds kMaxSamples samples, over 17 minutes of CPU at the 4 ms
// a 250 Hz kernel delivers; later samples are counted as dropped. It is
// reserved, not committed: only the pages samples touch count toward the
// profiled process's RSS. backtrace() is not async-signal-safe
// in general (a sample that interrupts the dynamic loader can stall), so
// this is a measuring tool, never part of a product.

#ifndef _GNU_SOURCE
#define _GNU_SOURCE
#endif

#include <dlfcn.h>
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace {

constexpr int kMaxDepth = 48;
constexpr long kPeriodUs = 1000;
constexpr size_t kMaxSamples = size_t{1} << 18;
/// One sample: its depth, then up to kMaxDepth addresses, leaf first.
constexpr size_t kSlotWords = 1 + kMaxDepth;

uint64_t* g_slots = nullptr;
std::atomic<size_t> g_next{0};
std::atomic<uint64_t> g_dropped{0};

void OnSigprof(int, siginfo_t*, void* context) {
  const int saved_errno = errno;
  const size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
  if (i >= kMaxSamples) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  void* frames[kMaxDepth + 4];
  const int n = backtrace(frames, kMaxDepth + 4);
  // The first frames are this handler and the signal trampoline: start at
  // the interrupted instruction.
  int first = n < 2 ? n : 2;
#if defined(__x86_64__)
  const auto pc = reinterpret_cast<void*>(
      static_cast<ucontext_t*>(context)->uc_mcontext.gregs[REG_RIP]);
  for (int k = 0; k < n; ++k) {
    if (frames[k] == pc) {
      first = k;
      break;
    }
  }
#else
  (void)context;
#endif
  uint64_t* slot = g_slots + i * kSlotWords;
  int depth = 0;
  for (int k = first; k < n && depth < kMaxDepth; ++k) {
    slot[1 + depth++] = reinterpret_cast<uintptr_t>(frames[k]);
  }
  slot[0] = static_cast<uint64_t>(depth);
  errno = saved_errno;
}

std::string OutputPath() {
  const char* env = std::getenv("PS2_PROF_OUT");
  std::string path = env != nullptr && *env != '\0' ? env : "ps2prof.%p.txt";
  const size_t at = path.find("%p");
  if (at != std::string::npos) {
    path.replace(at, 2, std::to_string(static_cast<long>(getpid())));
  }
  return path;
}

/// The module of `addr` as (path, offset from its load base), and the
/// dynamic symbol whose extent holds it, if any.
struct Frame {
  std::string module;
  uintptr_t offset = 0;
  std::string symbol;
};

Frame Resolve(uintptr_t addr, const std::string& self_exe) {
  Frame f;
  Dl_info info;
  void* entry = nullptr;
  if (dladdr1(reinterpret_cast<void*>(addr), &info, &entry,
              RTLD_DL_SYMENT) == 0) {
    f.module = "?";
    f.offset = addr;
    return f;
  }
  f.module = info.dli_fname != nullptr ? info.dli_fname : "";
  // The main program reports the name it was started by, which may be bare
  // or relative: use its path. A library preloaded by a relative path
  // reports that path: resolve it against the working directory.
  if (f.module.empty() || f.module == program_invocation_name) {
    f.module = self_exe;
  } else if (f.module[0] != '/') {
    char resolved[PATH_MAX];
    if (realpath(f.module.c_str(), resolved) != nullptr) f.module = resolved;
  }
  f.offset = addr - reinterpret_cast<uintptr_t>(info.dli_fbase);
  const auto* sym = static_cast<const ElfW(Sym)*>(entry);
  if (sym != nullptr && info.dli_sname != nullptr &&
      info.dli_saddr != nullptr) {
    const uintptr_t start = reinterpret_cast<uintptr_t>(info.dli_saddr);
    if (addr >= start && addr < start + sym->st_size) f.symbol = info.dli_sname;
  }
  return f;
}

void Flush() {
  if (g_slots == nullptr) return;
  struct itimerval off {};
  setitimer(ITIMER_PROF, &off, nullptr);
  signal(SIGPROF, SIG_IGN);
  const size_t n = std::min(g_next.load(), kMaxSamples);
  std::map<std::vector<uint64_t>, uint64_t> stacks;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t* slot = g_slots + i * kSlotWords;
    if (slot[0] == 0) continue;
    stacks[std::vector<uint64_t>(slot + 1, slot + 1 + slot[0])] += 1;
  }
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  const std::string self_exe = len > 0 ? std::string(exe, len) : "?";
  std::map<uint64_t, Frame> frames;
  std::map<std::string, int> modules;
  for (const auto& [stack, count] : stacks) {
    for (uint64_t addr : stack) {
      if (frames.count(addr) != 0) continue;
      Frame f = Resolve(addr, self_exe);
      modules.emplace(f.module, static_cast<int>(modules.size()));
      frames.emplace(addr, std::move(f));
    }
  }
  const std::string path = OutputPath();
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "ps2prof: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "# ps2prof period_us=%ld samples=%zu dropped=%llu\n",
               kPeriodUs, n,
               static_cast<unsigned long long>(g_dropped.load()));
  for (const auto& [name, index] : modules) {
    std::fprintf(out, "M %d %s\n", index, name.c_str());
  }
  for (const auto& [stack, count] : stacks) {
    std::fprintf(out, "S %llu", static_cast<unsigned long long>(count));
    for (uint64_t addr : stack) {
      const Frame& f = frames.at(addr);
      std::fprintf(out, " %d:%llx", modules.at(f.module),
                   static_cast<unsigned long long>(f.offset));
      if (!f.symbol.empty()) std::fprintf(out, "=%s", f.symbol.c_str());
    }
    std::fprintf(out, "\n");
  }
  std::fclose(out);
  std::fprintf(stderr, "ps2prof: %zu samples (%llu dropped) -> %s\n", n,
               static_cast<unsigned long long>(g_dropped.load()),
               path.c_str());
}

__attribute__((constructor)) void Start() {
  void* mem = mmap(nullptr, kMaxSamples * kSlotWords * sizeof(uint64_t),
                   PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) {
    std::fprintf(stderr, "ps2prof: cannot map the sample buffer\n");
    return;
  }
  g_slots = static_cast<uint64_t*>(mem);
  // The first backtrace() loads the unwinder, which allocates: do it here,
  // not in the handler.
  void* warm[4];
  backtrace(warm, 4);
  struct sigaction sa {};
  sa.sa_sigaction = OnSigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  struct itimerval timer {};
  timer.it_interval.tv_usec = kPeriodUs;
  timer.it_value.tv_usec = kPeriodUs;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((destructor)) void Stop() { Flush(); }

}  // namespace
