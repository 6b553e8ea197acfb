#pragma once

// Traffic recording and stage costing.
//
// Execution model: the driver runs stages (sets of parallel tasks, one BSP
// barrier at the end — Spark semantics). Inside a task, every PS interaction
// records its traffic into the thread-local TaskTraffic. When the stage
// completes, StageCost() converts the recorded per-task / per-server traffic
// into virtual elapsed time:
//
//   worker side: tasks are assigned round-robin to executors; an executor's
//     time is the sum of its tasks' (compute + egress/ingress + per-message
//     overhead + dependent round latencies); the worker bound is the max
//     over executors.
//   server side: requests from all tasks serialize at each server; the
//     server bound is the max over servers of (bytes/bw + msgs*overhead +
//     server ops/flops).
//   stage elapsed = max(worker bound, server bound) + driver dispatch.
//
// This makes the driver bottleneck, PS sharding benefit and server-side
// compute benefit all fall out of the same accounting.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/cost_model.h"

namespace ps2 {

/// \brief Per-task record of network and compute activity.
struct TaskTraffic {
  uint64_t worker_ops = 0;   ///< scalar ops executed on the worker
  uint64_t rounds = 0;       ///< dependent request/response round trips
  /// Round trips that overlapped an already-in-flight round of the same task
  /// (issued via the async client while another async op was outstanding).
  /// They ride the leader's latency window, so TaskWorkerTime charges
  /// RoundLatency(rounds) only — a group of k overlapped ops costs max (one
  /// round) rather than sum (k rounds). Bytes/messages/server ops are still
  /// recorded in full; only the *latency* term is collapsed.
  uint64_t pipelined_rounds = 0;
  uint64_t io_bytes = 0;     ///< input bytes read from (simulated) storage
  /// Pulls served from the client's hot-row cache (hotspot/, §5d). They cost
  /// worker compute only — no bytes, no messages, no round latency — but are
  /// counted here so benches can report how much traffic the cache absorbed.
  uint64_t local_pull_hits = 0;
  uint64_t local_pull_bytes = 0;  ///< bytes those hits would have pulled
  /// Message-level retries (DESIGN.md §6): failed exchange attempts that the
  /// client retried, and the total exponential backoff they waited. The
  /// backoff is charged as worker-side stall in TaskWorkerTime; failed
  /// attempts charge no bytes (the simplification: a lost message's partial
  /// transfer is folded into the backoff term).
  uint64_t retries = 0;
  double retry_backoff_time = 0.0;  ///< virtual seconds of backoff stall
  /// Retried mutations the server recognized as already applied (by the
  /// per-client sequence number) and acked without re-applying.
  uint64_t dedup_hits = 0;
  /// Bounded-staleness gate stalls (consistency/, DESIGN.md §11): times a
  /// worker found `min_clock < my_clock - slack` and had to wait, and the
  /// virtual poll time it spent blocked. Charged as worker-side stall in
  /// TaskWorkerTime, exactly like retry backoff.
  uint64_t staleness_waits = 0;
  double staleness_wait_time = 0.0;  ///< virtual seconds blocked at the gate
  /// Requests rejected with the `routing stale` FailedPrecondition
  /// (DESIGN.md §12) that the client re-planned against a refetched routing
  /// table. Each refetch also charges one retry backoff of worker stall.
  uint64_t routing_refetches = 0;

  /// Server co-located with this task's executor (ClusterSpec
  /// `colocate_workers`), or -1. Exchanges with it are loopback: messages
  /// and server ops are recorded as usual (per-message overhead and server
  /// compute are real), but the bytes land in the loopback counters below
  /// instead of the per-server bytes_to / bytes_from, so no bandwidth term
  /// ever charges them. Set per task by RunStage; never merged.
  int colocated_server = -1;
  uint64_t loopback_exchanges = 0;   ///< exchanges that stayed on-node
  uint64_t loopback_bytes_to = 0;    ///< wire bytes to the co-located server
  uint64_t loopback_bytes_from = 0;  ///< wire bytes back from it

  // Wire-vs-logical accounting (net/filters.h). The per-server bytes_to /
  // bytes_from hold WIRE bytes — what the cost model charges. The
  // logical totals hold the pre-filter payload sizes, so
  // logical / wire is the filter chain's compression ratio. With filters
  // off the two are equal.
  uint64_t logical_bytes_to = 0;
  uint64_t logical_bytes_from = 0;
  /// Key-cache filter outcomes: key lists replaced by a hash (hits), key
  /// lists sent with an install hash, and refs the server could not resolve
  /// (forcing a re-encoded install retry).
  uint64_t keycache_hits = 0;
  uint64_t keycache_installs = 0;
  uint64_t keycache_misses = 0;

  /// One server's share of the record: wire bytes and messages each way,
  /// and the ops the server ran.
  struct PerServer {
    uint64_t bytes_to = 0;
    uint64_t bytes_from = 0;
    uint64_t msgs_to = 0;
    uint64_t msgs_from = 0;
    uint64_t ops = 0;
  };
  /// Per-server breakdown, indexed by server id and sized lazily: one
  /// allocation per record. Clear() keeps its capacity, so a record reused
  /// for the next op allocates nothing.
  std::vector<PerServer> servers;

  void EnsureServers(size_t n);

  /// Records one request/response exchange with `server`. The 4-arg form is
  /// for unfiltered traffic: logical bytes equal wire bytes.
  void RecordExchange(int server, uint64_t bytes_out, uint64_t bytes_in,
                      uint64_t ops_on_server);
  void RecordExchange(int server, uint64_t bytes_out, uint64_t bytes_in,
                      uint64_t ops_on_server, uint64_t logical_out,
                      uint64_t logical_in);

  /// Totals across servers.
  uint64_t TotalBytesToServers() const;
  uint64_t TotalBytesFromServers() const;
  uint64_t TotalMsgs() const;

  void MergeFrom(const TaskTraffic& other);
  void Clear();
};

/// \brief Thread-local binding of the "current task" traffic record.
///
/// PS clients look this up so that DCV ops issued from inside a task body are
/// charged to that task. RAII scope.
class TrafficScope {
 public:
  explicit TrafficScope(TaskTraffic* traffic);
  ~TrafficScope();

  TrafficScope(const TrafficScope&) = delete;
  TrafficScope& operator=(const TrafficScope&) = delete;

  /// The active record, or nullptr outside any task.
  static TaskTraffic* Current();

 private:
  TaskTraffic* previous_;
};

/// \brief Result of costing one stage.
struct StageCostBreakdown {
  SimTime worker_bound = 0;
  SimTime server_bound = 0;
  SimTime dispatch = 0;
  SimTime retry_penalty = 0;
  SimTime elapsed = 0;  ///< what the clock advances by
};

/// \brief Converts recorded traffic into elapsed virtual time.
///
/// `retry_fractions[i]` lists, for task i, the fraction of its cost charged
/// for each failed attempt (empty if the task succeeded first try).
StageCostBreakdown StageCost(
    const CostModel& cost, const std::vector<TaskTraffic>& per_task,
    const std::vector<std::vector<double>>& retry_fractions);

/// The time one server's share of a record keeps that server busy: its
/// bytes over the bandwidth, its messages' overhead and its ops.
SimTime ServerBusyTime(const CostModel& cost, const TaskTraffic::PerServer& s);

/// Worker-side cost of a single task's recorded traffic.
SimTime TaskWorkerTime(const CostModel& cost, const TaskTraffic& t);

}  // namespace ps2
