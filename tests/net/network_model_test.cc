#include "net/network_model.h"

#include <gtest/gtest.h>


namespace ps2 {
namespace {

ClusterSpec SimpleSpec() {
  ClusterSpec spec;
  spec.num_workers = 4;
  spec.num_servers = 4;
  spec.net_bandwidth_bps = 1e9;
  spec.rpc_latency_s = 1e-3;
  spec.per_msg_overhead_s = 0;
  spec.worker_flops = 1e9;
  spec.server_flops = 1e9;
  return spec;
}

TEST(TaskTrafficTest, RecordExchangeAccumulates) {
  TaskTraffic t;
  t.RecordExchange(2, 100, 50, 10);
  t.RecordExchange(2, 100, 0, 5);
  ASSERT_EQ(t.servers.size(), 3u);
  EXPECT_EQ(t.servers[2].bytes_to, 200u);
  EXPECT_EQ(t.servers[2].bytes_from, 50u);
  EXPECT_EQ(t.servers[2].msgs_to, 2u);
  EXPECT_EQ(t.servers[2].msgs_from, 1u);  // zero-byte response not counted
  EXPECT_EQ(t.servers[2].ops, 15u);
  EXPECT_EQ(t.TotalBytesToServers(), 200u);
  EXPECT_EQ(t.TotalMsgs(), 3u);
}

TEST(TaskTrafficTest, MergePreservesTotals) {
  TaskTraffic a, b;
  a.RecordExchange(0, 10, 5, 1);
  a.worker_ops = 100;
  a.rounds = 2;
  b.RecordExchange(1, 20, 10, 2);
  b.io_bytes = 50;
  a.MergeFrom(b);
  EXPECT_EQ(a.TotalBytesToServers(), 30u);
  EXPECT_EQ(a.io_bytes, 50u);
  EXPECT_EQ(a.worker_ops, 100u);
}

TEST(TaskTrafficTest, ClearResets) {
  TaskTraffic t;
  t.RecordExchange(0, 10, 5, 1);
  t.Clear();
  EXPECT_EQ(t.TotalMsgs(), 0u);
  EXPECT_TRUE(t.servers.empty());
}

TEST(TrafficScopeTest, NestedScopesRestore) {
  TaskTraffic outer, inner;
  EXPECT_EQ(TrafficScope::Current(), nullptr);
  {
    TrafficScope a(&outer);
    EXPECT_EQ(TrafficScope::Current(), &outer);
    {
      TrafficScope b(&inner);
      EXPECT_EQ(TrafficScope::Current(), &inner);
    }
    EXPECT_EQ(TrafficScope::Current(), &outer);
  }
  EXPECT_EQ(TrafficScope::Current(), nullptr);
}

TEST(StageCostTest, WorkerComputeBound) {
  CostModel cost(SimpleSpec());
  std::vector<TaskTraffic> tasks(4);
  for (auto& t : tasks) t.worker_ops = 1000000000;  // 1s each at 1 GFLOPs
  StageCostBreakdown breakdown = StageCost(cost, tasks, {});
  // 4 tasks on 4 workers, one each -> worker bound ~1s.
  EXPECT_NEAR(breakdown.worker_bound, 1.0, 0.01);
  EXPECT_NEAR(breakdown.elapsed, 1.0, 0.05);
}

TEST(StageCostTest, TasksQueuePerWorker) {
  CostModel cost(SimpleSpec());
  std::vector<TaskTraffic> tasks(8);  // 2 waves on 4 workers
  for (auto& t : tasks) t.worker_ops = 1000000000;
  StageCostBreakdown breakdown = StageCost(cost, tasks, {});
  EXPECT_NEAR(breakdown.worker_bound, 2.0, 0.01);
}

TEST(StageCostTest, ServerBoundWhenOneServerIsHot) {
  CostModel cost(SimpleSpec());
  std::vector<TaskTraffic> tasks(4);
  for (auto& t : tasks) {
    t.RecordExchange(0, 250 << 20, 0, 0);  // all traffic to server 0
  }
  StageCostBreakdown breakdown = StageCost(cost, tasks, {});
  // 4 x 250 MB into one 1 GB/s endpoint -> ~1s server bound.
  EXPECT_NEAR(breakdown.server_bound, 1.0, 0.1);
  EXPECT_GE(breakdown.elapsed, breakdown.server_bound);
}

TEST(StageCostTest, BalancedServersAreFaster) {
  CostModel cost(SimpleSpec());
  std::vector<TaskTraffic> hot(4), balanced(4);
  for (auto& t : hot) t.RecordExchange(0, 100 << 20, 0, 0);
  for (int i = 0; i < 4; ++i) {
    for (int s = 0; s < 4; ++s) {
      balanced[i].RecordExchange(s, 25 << 20, 0, 0);
    }
  }
  SimTime t_hot = StageCost(cost, hot, {}).elapsed;
  SimTime t_bal = StageCost(cost, balanced, {}).elapsed;
  EXPECT_GT(t_hot / t_bal, 2.0);
}

TEST(StageCostTest, RetriesChargePartialTaskCost) {
  CostModel cost(SimpleSpec());
  std::vector<TaskTraffic> tasks(1);
  tasks[0].worker_ops = 1000000000;
  std::vector<std::vector<double>> retries{{0.5}};  // one failed attempt at 50%
  StageCostBreakdown with = StageCost(cost, tasks, retries);
  StageCostBreakdown without = StageCost(cost, tasks, {});
  EXPECT_NEAR(with.worker_bound - without.worker_bound, 0.5, 0.01);
  EXPECT_NEAR(with.retry_penalty, 0.5, 0.01);
}

TEST(StageCostTest, RoundsChargeLatency) {
  CostModel cost(SimpleSpec());
  std::vector<TaskTraffic> tasks(1);
  tasks[0].rounds = 10;
  StageCostBreakdown breakdown = StageCost(cost, tasks, {});
  EXPECT_GE(breakdown.worker_bound, 10 * 1e-3);
}

}  // namespace
}  // namespace ps2
