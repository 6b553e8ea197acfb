#include "dataflow/cluster.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"
#include "obs/trace.h"

namespace ps2 {

Cluster::Cluster(const ClusterSpec& spec)
    : spec_(spec),
      cost_(spec),
      failures_(spec.task_failure_prob, spec.message_failure_prob,
                spec.server_crash_prob, spec.seed),
      pool_(ThreadPool::Global()),
      root_rng_(spec.seed) {
  PS2_CHECK(spec.Valid()) << "invalid ClusterSpec";
  // Size tagged-name tables for the whole elastic fleet: servers beyond
  // num_servers may activate later (DESIGN.md §12) and must have their
  // busy-time counters from the first stage they serve.
  const int fleet = spec_.EffectiveMaxServers();
  server_busy_names_.reserve(fleet);
  server_bytes_to_names_.reserve(fleet);
  server_bytes_from_names_.reserve(fleet);
  for (int s = 0; s < fleet; ++s) {
    server_busy_names_.push_back(
        ServerTaggedName("obs.server_busy_time", s));
    server_bytes_to_names_.push_back(
        ServerTaggedName("net.bytes_to_server", s));
    server_bytes_from_names_.push_back(
        ServerTaggedName("net.bytes_from_server", s));
  }
  // Trace spans stamp virtual time off this cluster's clock. Last
  // constructed wins; ClearClock in the dtor only unhooks our own clock.
  obs::Tracer::Global().SetClock(&clock_);
}

Cluster::~Cluster() { obs::Tracer::Global().ClearClock(&clock_); }

void Cluster::RunStage(const std::string& name, size_t ntasks,
                       const std::function<void(TaskContext&)>& body) {
  std::optional<obs::SpanGuard> stage_span;
  const bool traced = obs::Tracer::Global().enabled();
  if (traced) stage_span.emplace("dataflow", "stage:" + name);
  // Pre-draw failure attempts serially so results do not depend on thread
  // scheduling.
  std::vector<std::vector<double>> retry_fractions(ntasks);
  for (size_t i = 0; i < ntasks; ++i) {
    while (failures_.ShouldFailTask()) {
      retry_fractions[i].push_back(failures_.FailurePoint());
    }
  }

  std::vector<TaskTraffic> per_task(ntasks);
  const uint64_t stage_index = stages_run_;
  pool_->ParallelFor(ntasks, [&](size_t i) {
    TaskContext ctx;
    ctx.task_id = i;
    ctx.executor_id = ExecutorForPartition(i);
    ctx.attempt = static_cast<int>(retry_fractions[i].size());
    ctx.rng = root_rng_.Split((stage_index << 20) ^ (i + 1));
    per_task[i].colocated_server = spec_.ColocatedServer(ctx.executor_id);
    ctx.traffic = &per_task[i];
    ctx.cluster = this;
    TrafficScope scope(&per_task[i]);
    std::optional<obs::SpanGuard> task_span;
    if (traced) task_span.emplace("dataflow", "task:" + std::to_string(i));
    body(ctx);
  });

  StageCostBreakdown breakdown = StageCost(cost_, per_task, retry_fractions);
  clock_.Advance(breakdown.elapsed);
  last_stage_cost_ = breakdown;
  ++stages_run_;

  TaskTraffic stage_traffic;
  uint64_t retries = 0;
  for (size_t i = 0; i < ntasks; ++i) {
    stage_traffic.MergeFrom(per_task[i]);
    retries += retry_fractions[i].size();
  }
  metrics_.Add("cluster.stages", 1);
  metrics_.Add("cluster.tasks", ntasks);
  metrics_.Add("cluster.task_retries", retries);
  RecordTraffic(stage_traffic);

  std::vector<std::function<void(Cluster&)>> hooks;
  {
    std::lock_guard<std::mutex> lock(callbacks_mu_);
    hooks = post_stage_hooks_;
  }
  for (auto& hook : hooks) hook(*this);
}

void Cluster::ChargeDriver(SimTime seconds) {
  PS2_CHECK_GE(seconds, 0.0);
  clock_.Advance(seconds);
}

void Cluster::AdvanceClock(SimTime seconds) {
  PS2_CHECK_GE(seconds, 0.0);
  clock_.Advance(seconds);
}

void Cluster::ChargeOutOfTask(const TaskTraffic& traffic) {
  SimTime worst_server = 0;
  for (const TaskTraffic::PerServer& s : traffic.servers) {
    worst_server = std::max(worst_server, ServerBusyTime(cost_, s));
  }
  SimTime elapsed = cost_.RoundLatency(traffic.rounds) + worst_server +
                    cost_.WorkerCompute(traffic.worker_ops) +
                    traffic.retry_backoff_time + traffic.staleness_wait_time;
  AdvanceClock(elapsed);
  RecordTraffic(traffic);
}

void Cluster::RecordTraffic(const TaskTraffic& traffic) {
  metrics_.Add("net.bytes_worker_to_server", traffic.TotalBytesToServers());
  metrics_.Add("net.bytes_server_to_worker", traffic.TotalBytesFromServers());
  metrics_.Add("net.messages", traffic.TotalMsgs());
  metrics_.Add("net.rounds", traffic.rounds);
  metrics_.Add("net.pipelined_rounds", traffic.pipelined_rounds);
  metrics_.Add("net.local_pull_hits", traffic.local_pull_hits);
  metrics_.Add("net.local_pull_bytes", traffic.local_pull_bytes);
  metrics_.Add("net.retries", traffic.retries);
  // Counters are integral; store backoff as microseconds.
  metrics_.Add("net.retry_backoff_time",
               static_cast<uint64_t>(traffic.retry_backoff_time * 1e6));
  metrics_.Add("ps.dedup_hits", traffic.dedup_hits);
  // Consistency-gate stalls (consistency/, DESIGN.md §11); wait time in µs,
  // same convention as net.retry_backoff_time.
  metrics_.Add("ps.staleness_waits", traffic.staleness_waits);
  metrics_.Add("net.staleness_wait_time",
               static_cast<uint64_t>(traffic.staleness_wait_time * 1e6));
  // Routing-table refetches after a `routing stale` rejection (DESIGN.md
  // §12); the backoff they cost is folded into net.retry_backoff_time.
  metrics_.Add("net.routing_refetches", traffic.routing_refetches);
  // Loopback exchanges with a co-located server (DESIGN.md §13): their
  // messages and server ops are in the totals above, their bytes are not.
  metrics_.Add("net.loopback_exchanges", traffic.loopback_exchanges);
  metrics_.Add("net.loopback_bytes",
               traffic.loopback_bytes_to + traffic.loopback_bytes_from);
  // Wire-vs-logical accounting (net/filters.h): the byte totals above are
  // wire bytes (what the cost model charges); these expose the pre-filter
  // payload sizes so benches can report the filter chain's ratio.
  metrics_.Add("net.bytes_wire",
               traffic.TotalBytesToServers() + traffic.TotalBytesFromServers());
  metrics_.Add("net.bytes_logical",
               traffic.logical_bytes_to + traffic.logical_bytes_from);
  metrics_.Add("net.bytes_logical_worker_to_server", traffic.logical_bytes_to);
  metrics_.Add("net.bytes_logical_server_to_worker",
               traffic.logical_bytes_from);
  metrics_.Add("ps.keycache_hits", traffic.keycache_hits);
  metrics_.Add("ps.keycache_installs", traffic.keycache_installs);
  metrics_.Add("ps.keycache_misses", traffic.keycache_misses);
  // Per-server breakdown: bytes each way and the modeled busy time (virtual
  // µs) this traffic kept server `s` occupied — the straggler signal. All
  // inputs are simulation quantities, so these counters stay deterministic.
  const size_t nservers =
      std::min(traffic.servers.size(), server_busy_names_.size());
  for (size_t i = 0; i < nservers; ++i) {
    const TaskTraffic::PerServer& s = traffic.servers[i];
    if (s.bytes_to == 0 && s.bytes_from == 0 && s.msgs_to == 0 &&
        s.msgs_from == 0 && s.ops == 0) {
      continue;
    }
    metrics_.Add(server_bytes_to_names_[i], s.bytes_to);
    metrics_.Add(server_bytes_from_names_[i], s.bytes_from);
    const SimTime busy = ServerBusyTime(cost_, s);
    metrics_.Add(server_busy_names_[i], static_cast<uint64_t>(busy * 1e6));
  }
}

void Cluster::KillExecutor(int executor_id) {
  PS2_CHECK_GE(executor_id, 0);
  PS2_CHECK_LT(executor_id, spec_.num_workers);
  std::vector<std::function<void(int)>> callbacks;
  {
    std::lock_guard<std::mutex> lock(callbacks_mu_);
    callbacks = cache_invalidation_callbacks_;
  }
  for (auto& cb : callbacks) cb(executor_id);
  metrics_.Add("cluster.executor_failures", 1);
}

void Cluster::RegisterCacheInvalidation(std::function<void(int)> callback) {
  std::lock_guard<std::mutex> lock(callbacks_mu_);
  cache_invalidation_callbacks_.push_back(std::move(callback));
}

void Cluster::RegisterPostStageHook(std::function<void(Cluster&)> hook) {
  std::lock_guard<std::mutex> lock(callbacks_mu_);
  post_stage_hooks_.push_back(std::move(hook));
}

}  // namespace ps2
