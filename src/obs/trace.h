#pragma once

// Span tracing for the simulated cluster (DESIGN.md §7).
//
// A span is one timed region of code — a client op, a server opcode handler,
// a dataflow stage — recorded with BOTH clocks that matter here:
//
//   wall time    (std::chrono::steady_clock) — where the real CPU seconds of
//                this process go; what you profile.
//   virtual time (sim/sim_clock.h)           — where the modeled cluster
//                seconds go; what the paper's figures report.
//
// Usage: `PS2_TRACE_SPAN("ps.client", "read_rows");` opens an RAII span that
// closes at scope exit. Tracing is off by default; a disabled span is a
// single relaxed atomic load (no allocation, no clock read), so the
// instrumentation can stay in the hot paths permanently. Virtual time is
// *not* affected either way — the tracer only observes, it never feeds the
// cost model — so traced and untraced runs produce identical virtual times.
//
// Recording is per-thread: each thread owns a fixed-capacity ring buffer
// registered with the global Tracer. When a ring is full the oldest span is
// overwritten (and counted in dropped()), so a long run keeps its most
// recent window instead of growing without bound. Tracer::WriteChromeTrace()
// drains every ring into a `chrome://tracing` / Perfetto-loadable JSON file
// of complete ("ph":"X") events; the virtual interval of each span travels
// in its `args`.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/sim_clock.h"

namespace ps2 {
namespace obs {

/// \brief One completed span.
struct TraceEvent {
  const char* category = "";  ///< static string (macro argument)
  std::string name;
  double wall_begin_us = 0.0;  ///< steady_clock, µs since an arbitrary epoch
  double wall_dur_us = 0.0;
  double virt_begin_s = -1.0;  ///< SimClock; -1 = no clock was registered
  double virt_end_s = -1.0;
  uint32_t tid = 0;  ///< small dense per-thread id (not the OS tid)
  int depth = 0;     ///< nesting level within the thread, outermost = 1
};

/// \brief Process-global trace collector.
class Tracer {
 public:
  static constexpr size_t kDefaultRingCapacity = 1 << 15;

  static Tracer& Global();

  /// Turns tracing on, drops anything previously recorded, and sets the
  /// per-thread ring capacity used from now on.
  void Enable(size_t ring_capacity = kDefaultRingCapacity);
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Registers the virtual clock spans read their virt_* stamps from.
  /// Cluster registers its own clock on construction while tracing is
  /// enabled; ClearClock is idempotent and only unregisters `clock` if it is
  /// the one currently registered (so destroying an unrelated cluster never
  /// unhooks the traced one).
  void SetClock(const SimClock* clock);
  void ClearClock(const SimClock* clock);

  /// Drops all recorded spans (ring capacity keeps its current value).
  void Clear();

  /// Copies out every recorded span, sorted by wall begin time.
  std::vector<TraceEvent> Collect() const;

  /// Spans overwritten by ring wraparound since the last Enable/Clear.
  uint64_t dropped() const;

  /// Writes all recorded spans as Chrome-trace JSON ("traceEvents" array of
  /// complete events). Loadable in chrome://tracing and ui.perfetto.dev.
  Status WriteChromeTrace(const std::string& path) const;

  /// Appends one finished event to the calling thread's ring. Exposed for
  /// call sites that finish a span on a different thread than the one that
  /// opened it (the async client's completion hook).
  void Record(TraceEvent event);

  /// Stamps of "now" on both clocks (wall µs, virtual s or -1).
  void Now(double* wall_us, double* virt_s) const;

 private:
  struct ThreadRing;

  Tracer() = default;
  ThreadRing* RingForThisThread();

  std::atomic<bool> enabled_{false};
  std::atomic<const SimClock*> clock_{nullptr};
  mutable std::mutex mu_;  ///< guards rings_ and capacity_
  size_t capacity_ = kDefaultRingCapacity;
  std::vector<std::shared_ptr<ThreadRing>> rings_;
  std::atomic<uint32_t> next_tid_{0};
};

/// \brief RAII span: opens in the constructor, records at scope exit.
class SpanGuard {
 public:
  SpanGuard(const char* category, const char* name);
  SpanGuard(const char* category, std::string name);
  ~SpanGuard();

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  void Open(const char* category);

  bool active_ = false;
  TraceEvent event_;
};

}  // namespace obs
}  // namespace ps2

#define PS2_OBS_CONCAT_(a, b) a##b
#define PS2_OBS_CONCAT(a, b) PS2_OBS_CONCAT_(a, b)

/// Opens an RAII trace span covering the rest of the enclosing scope.
/// `category` must be a string literal; `name` may be a literal (no
/// allocation when tracing is off) or a std::string.
#define PS2_TRACE_SPAN(category, name)                 \
  ::ps2::obs::SpanGuard PS2_OBS_CONCAT(ps2_trace_span_, \
                                       __LINE__)((category), (name))
