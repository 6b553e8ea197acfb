// Ablation (extension): the asynchronous pipelined PS client.
//
// Sweeps server count for a fixed pull+push workload on the driver path,
// comparing the serial client flow (every op waits its own round trip)
// against the async client (a window of overlapped ops shares one round of
// latency, fanned out to the servers in parallel). Bytes on the wire are
// identical in both modes — only the latency term collapses from sum to
// max — so the async win grows with server count: sharding shrinks the
// per-server transfer until the round trips the serial client pays for are
// the dominant term, and those are exactly what pipelining removes.

#include <cinttypes>

#include "bench/bench_common.h"
#include "dataflow/cluster.h"
#include "ps/ps_client.h"
#include "ps/ps_future.h"
#include "ps/ps_master.h"

namespace {

using namespace ps2;

constexpr int kOps = 32;     // pull+push pairs per measurement
constexpr int kWindow = 8;   // async in-flight depth

bool RunSync(PsClient& client, RowRef w, const std::vector<double>& delta) {
  for (int i = 0; i < kOps; ++i) {
    if (!client.ReadRowsAsync({w}, RowSelector::Range()).Get().ok() ||
        !client.WriteRowsAsync({w}, delta).Wait().ok()) {
      return false;
    }
  }
  return true;
}

bool RunAsync(PsClient& client, RowRef w, const std::vector<double>& delta) {
  std::vector<PsFuture<RowBlock>> pulls;
  std::vector<PsFuture<Ack>> pushes;
  size_t next_pull = 0, next_push = 0;
  for (int i = 0; i < kOps; ++i) {
    pulls.push_back(client.ReadRowsAsync({w}, RowSelector::Range()));
    pushes.push_back(client.WriteRowsAsync({w}, delta));
    // Harvest the oldest op once `kWindow` are in flight.
    while (pulls.size() - next_pull + pushes.size() - next_push >
           static_cast<size_t>(kWindow)) {
      if (next_pull <= next_push) {
        if (!pulls[next_pull++].Wait().ok()) return false;
      } else {
        if (!pushes[next_push++].Wait().ok()) return false;
      }
    }
  }
  for (; next_pull < pulls.size(); ++next_pull) {
    if (!pulls[next_pull].Wait().ok()) return false;
  }
  for (; next_push < pushes.size(); ++next_push) {
    if (!pushes[next_push].Wait().ok()) return false;
  }
  return true;
}

}  // namespace

int main() {
  bench::Header("Ablation: async pipelined client",
                "extension — paper §5.1's asynchronous client");
  const double scale = bench::Scale();
  const uint64_t dim = static_cast<uint64_t>(500000 * scale);

  std::printf("workload: %d pulls + %d pushes of a %" PRIu64
              "-dim row, window %d, driver path\n\n",
              kOps, kOps, dim, kWindow);
  std::printf("%-10s %-14s %-14s %-10s %-16s %-12s\n", "servers",
              "sync time(s)", "async time(s)", "speedup", "async MB/s",
              "bytes match");

  bench::JsonReporter reporter("ablation_async_client");
  for (int servers : {1, 2, 4, 8, 16}) {
    ClusterSpec spec;
    spec.num_workers = 4;
    spec.num_servers = servers;
    Cluster cluster(spec);
    PsMaster master(&cluster);
    PsClient client(&master);

    MatrixOptions options;
    options.dim = dim;
    options.reserve_rows = 2;
    RowRef w{*master.CreateMatrix(options), 0};
    std::vector<double> delta(dim, 1.0);

    // Timing passes: driver-path ops advance the virtual clock directly —
    // RoundLatency once per round for the serial client, once per
    // window-load of overlapped ops for the async client.
    SimTime t0 = cluster.clock().Now();
    if (!RunSync(client, w, delta)) return 1;
    SimTime sync_time = cluster.clock().Now() - t0;

    t0 = cluster.clock().Now();
    if (!RunAsync(client, w, delta)) return 1;
    SimTime async_time = cluster.clock().Now() - t0;

    // Byte-identity pass: the same loops under a TrafficScope must move
    // exactly the same bytes in both modes.
    TaskTraffic sync_traffic, async_traffic;
    {
      TrafficScope scope(&sync_traffic);
      if (!RunSync(client, w, delta)) return 1;
    }
    {
      TrafficScope scope(&async_traffic);
      if (!RunAsync(client, w, delta)) return 1;
    }
    bool bytes_match =
        sync_traffic.TotalBytesToServers() ==
            async_traffic.TotalBytesToServers() &&
        sync_traffic.TotalBytesFromServers() ==
            async_traffic.TotalBytesFromServers();

    double payload_mb = static_cast<double>(
                            async_traffic.TotalBytesToServers() +
                            async_traffic.TotalBytesFromServers()) /
                        1e6;
    std::printf("%-10d %-14.4f %-14.4f %-10.2f %-16.1f %-12s\n", servers,
                sync_time, async_time, sync_time / async_time,
                payload_mb / async_time, bytes_match ? "yes" : "NO — BUG");

    reporter.AddRun("servers_" + std::to_string(servers), cluster,
                    cluster.clock().Now());
    reporter.AddField("sync_time_s", sync_time);
    reporter.AddField("async_time_s", async_time);
    reporter.AddField("speedup", sync_time / async_time);
    reporter.AddField("bytes_match", bytes_match ? 1.0 : 0.0);
  }
  reporter.Write();

  std::printf(
      "\n(sync charges RoundLatency per op; async charges it once per\n"
      " window-load of overlapped ops — TaskTraffic::pipelined_rounds)\n");
  return 0;
}
