#include "net/network_model.h"

#include <algorithm>

#include "common/logging.h"

namespace ps2 {

namespace {
thread_local TaskTraffic* t_current_traffic = nullptr;
}  // namespace

void TaskTraffic::EnsureServers(size_t n) {
  if (servers.size() < n) servers.resize(n);
}

void TaskTraffic::RecordExchange(int server, uint64_t bytes_out,
                                 uint64_t bytes_in, uint64_t ops_on_server) {
  RecordExchange(server, bytes_out, bytes_in, ops_on_server, bytes_out,
                 bytes_in);
}

void TaskTraffic::RecordExchange(int server, uint64_t bytes_out,
                                 uint64_t bytes_in, uint64_t ops_on_server,
                                 uint64_t logical_out, uint64_t logical_in) {
  PS2_CHECK_GE(server, 0);
  logical_bytes_to += logical_out;
  logical_bytes_from += logical_in;
  EnsureServers(static_cast<size_t>(server) + 1);
  PerServer& s = servers[server];
  s.msgs_to += 1;
  if (bytes_in > 0) s.msgs_from += 1;
  s.ops += ops_on_server;
  if (server == colocated_server) {
    loopback_exchanges += 1;
    loopback_bytes_to += bytes_out;
    loopback_bytes_from += bytes_in;
    return;
  }
  s.bytes_to += bytes_out;
  if (bytes_in > 0) s.bytes_from += bytes_in;
}

uint64_t TaskTraffic::TotalBytesToServers() const {
  uint64_t total = 0;
  for (const PerServer& s : servers) total += s.bytes_to;
  return total;
}

uint64_t TaskTraffic::TotalBytesFromServers() const {
  uint64_t total = 0;
  for (const PerServer& s : servers) total += s.bytes_from;
  return total;
}

uint64_t TaskTraffic::TotalMsgs() const {
  uint64_t total = 0;
  for (const PerServer& s : servers) total += s.msgs_to + s.msgs_from;
  return total;
}

void TaskTraffic::MergeFrom(const TaskTraffic& other) {
  worker_ops += other.worker_ops;
  rounds += other.rounds;
  pipelined_rounds += other.pipelined_rounds;
  io_bytes += other.io_bytes;
  local_pull_hits += other.local_pull_hits;
  local_pull_bytes += other.local_pull_bytes;
  retries += other.retries;
  retry_backoff_time += other.retry_backoff_time;
  dedup_hits += other.dedup_hits;
  staleness_waits += other.staleness_waits;
  staleness_wait_time += other.staleness_wait_time;
  routing_refetches += other.routing_refetches;
  loopback_exchanges += other.loopback_exchanges;
  loopback_bytes_to += other.loopback_bytes_to;
  loopback_bytes_from += other.loopback_bytes_from;
  logical_bytes_to += other.logical_bytes_to;
  logical_bytes_from += other.logical_bytes_from;
  keycache_hits += other.keycache_hits;
  keycache_installs += other.keycache_installs;
  keycache_misses += other.keycache_misses;
  EnsureServers(other.servers.size());
  for (size_t i = 0; i < other.servers.size(); ++i) {
    PerServer& s = servers[i];
    const PerServer& o = other.servers[i];
    s.bytes_to += o.bytes_to;
    s.bytes_from += o.bytes_from;
    s.msgs_to += o.msgs_to;
    s.msgs_from += o.msgs_from;
    s.ops += o.ops;
  }
}

void TaskTraffic::Clear() {
  worker_ops = 0;
  rounds = 0;
  pipelined_rounds = 0;
  io_bytes = 0;
  local_pull_hits = 0;
  local_pull_bytes = 0;
  retries = 0;
  retry_backoff_time = 0.0;
  dedup_hits = 0;
  staleness_waits = 0;
  staleness_wait_time = 0.0;
  routing_refetches = 0;
  colocated_server = -1;
  loopback_exchanges = 0;
  loopback_bytes_to = 0;
  loopback_bytes_from = 0;
  logical_bytes_to = 0;
  logical_bytes_from = 0;
  keycache_hits = 0;
  keycache_installs = 0;
  keycache_misses = 0;
  servers.clear();
}

TrafficScope::TrafficScope(TaskTraffic* traffic) : previous_(t_current_traffic) {
  t_current_traffic = traffic;
}

TrafficScope::~TrafficScope() { t_current_traffic = previous_; }

TaskTraffic* TrafficScope::Current() { return t_current_traffic; }

SimTime ServerBusyTime(const CostModel& cost,
                       const TaskTraffic::PerServer& s) {
  return static_cast<double>(s.bytes_to + s.bytes_from) /
             cost.spec().net_bandwidth_bps +
         cost.MessageOverhead(s.msgs_to + s.msgs_from) +
         cost.ServerCompute(s.ops);
}

SimTime TaskWorkerTime(const CostModel& cost, const TaskTraffic& t) {
  const ClusterSpec& spec = cost.spec();
  SimTime time = cost.WorkerCompute(t.worker_ops);
  // pipelined_rounds deliberately absent: overlapped rounds share the
  // leader's latency window (max, not sum — see TaskTraffic).
  time += cost.RoundLatency(t.rounds);
  time += cost.MessageOverhead(t.TotalMsgs());
  time += static_cast<double>(t.TotalBytesToServers() +
                              t.TotalBytesFromServers()) /
          spec.net_bandwidth_bps;
  time += static_cast<double>(t.io_bytes) / spec.io_bandwidth_bps;
  // Retry backoff is a worker-side stall: the task sits out the exponential
  // wait before re-contacting an unavailable server. The staleness gate's
  // poll wait stalls the worker the same way (consistency/).
  time += t.retry_backoff_time;
  time += t.staleness_wait_time;
  return time;
}

StageCostBreakdown StageCost(
    const CostModel& cost, const std::vector<TaskTraffic>& per_task,
    const std::vector<std::vector<double>>& retry_fractions) {
  const ClusterSpec& spec = cost.spec();
  StageCostBreakdown out;

  // --- Worker bound: round-robin assignment of tasks to executors.
  const size_t num_workers = static_cast<size_t>(spec.num_workers);
  std::vector<SimTime> executor_time(num_workers, 0.0);
  for (size_t i = 0; i < per_task.size(); ++i) {
    SimTime task_time = TaskWorkerTime(cost, per_task[i]);
    SimTime charged = task_time;
    if (i < retry_fractions.size()) {
      for (double frac : retry_fractions[i]) {
        charged += frac * task_time;
        out.retry_penalty += frac * task_time;
      }
    }
    executor_time[i % num_workers] += charged;
  }
  for (SimTime t : executor_time) out.worker_bound = std::max(out.worker_bound, t);

  // --- Server bound: all tasks' requests serialize at each server.
  size_t num_servers = 0;
  for (const auto& t : per_task) {
    num_servers = std::max(num_servers, t.servers.size());
  }
  std::vector<SimTime> server_time(num_servers, 0.0);
  for (const auto& t : per_task) {
    for (size_t s = 0; s < t.servers.size(); ++s) {
      server_time[s] += ServerBusyTime(cost, t.servers[s]);
    }
  }
  for (SimTime t : server_time) out.server_bound = std::max(out.server_bound, t);

  // --- Driver dispatch: one scheduling round plus per-task launch overhead
  // (Spark task serialization/launch; a couple of ms per task, pipelined
  // across executors so it only bites for very short tasks).
  out.dispatch = spec.rpc_latency_s +
                 cost.MessageOverhead(2 * per_task.size());

  out.elapsed = std::max(out.worker_bound, out.server_bound) + out.dispatch;
  return out;
}

}  // namespace ps2
