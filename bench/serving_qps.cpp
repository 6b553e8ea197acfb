// Serving tier bench (DESIGN.md §10): what the snapshot/coalescing/admission
// stack actually delivers.
//
// Three experiments:
//   1. Load sweep — open-loop Poisson/Zipf traffic at offered rates under,
//      near and past the pipeline's capacity. Reports offered vs achieved
//      QPS, shed rate, and p50/p95/p99 *virtual* latency (deterministic:
//      the serving loop schedules everything in virtual time, so the tail
//      blow-up past saturation and the admission clamp are CI-gated).
//   2. Coalescing ablation — the same Zipf-hot batch stream with request
//      coalescing on vs off at matching load. Gate: coalescing must cut
//      net.bytes_wire (duplicate hot keys travel once) without hurting the
//      virtual p99.
//   3. Train-while-serve — a trainer pushes epoch after epoch while reads
//      stay pinned to the published snapshot. Gates: pinned reads are
//      bit-stable across concurrent training (epoch_stable), and training
//      reaches the exact same final model with serving attached as without
//      (loss_parity) — serving is read-only by construction.

#include <cstring>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "dataflow/cluster.h"
#include "linalg/sparse_vector.h"
#include "ps/ps_client.h"
#include "ps/ps_master.h"
#include "serving/serving_loop.h"
#include "serving/snapshot.h"

namespace {

using namespace ps2;

struct Setup {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<PsMaster> master;
  std::unique_ptr<PsClient> client;
  int matrix_id = -1;
};

constexpr uint32_t kRows = 8;

Setup MakeSetup(uint64_t dim) {
  ClusterSpec spec;
  spec.num_workers = 4;
  spec.num_servers = 4;
  Setup s;
  s.cluster = std::make_unique<Cluster>(spec);
  s.master = std::make_unique<PsMaster>(s.cluster.get());
  s.client = std::make_unique<PsClient>(s.master.get());
  MatrixOptions options;
  options.name = "served_model";
  options.dim = dim;
  options.reserve_rows = kRows;
  s.matrix_id = *s.master->CreateMatrix(options);
  // Deterministic non-trivial values, installed server-side.
  PS2_CHECK(s.client->MatrixInit(s.matrix_id, 0, kRows, 1.0, 77).ok());
  s.cluster->metrics().Reset();
  return s;
}

TrafficGenOptions MakeTraffic(const Setup& s, uint64_t dim, double qps) {
  TrafficGenOptions traffic;
  traffic.qps = qps;
  // Strong popularity skew: hot rows and hot keys dominate, which is the
  // regime coalescing exists for (and what online feature stores see).
  traffic.skew = 4.0;
  traffic.matrix_id = s.matrix_id;
  traffic.num_rows = kRows;
  traffic.dim = dim;
  traffic.keys_per_request = 16;
  traffic.seed = 13;
  return traffic;
}

void AddServingFields(bench::JsonReporter* json, const ServingReport& r) {
  json->AddField("offered_qps", r.offered_qps);
  json->AddField("achieved_qps", r.achieved_qps);
  json->AddField("shed_rate", r.shed_rate);
  json->AddField("requests_offered", static_cast<double>(r.offered));
  json->AddField("requests_served", static_cast<double>(r.served));
  json->AddField("requests_shed", static_cast<double>(r.shed));
  json->AddField("p50_virtual_us", r.p50_us);
  json->AddField("p95_virtual_us", r.p95_us);
  json->AddField("p99_virtual_us", r.p99_us);
}

/// One deterministic "training iteration": sparse gradient-like pushes into
/// every row. Same seed => bit-identical model trajectory.
void TrainIteration(const Setup& s, uint64_t dim, uint64_t iteration) {
  Rng rng(1000 + iteration);
  for (uint32_t r = 0; r < kRows; ++r) {
    std::vector<uint64_t> idx;
    std::vector<double> val;
    for (int k = 0; k < 24; ++k) {
      idx.push_back(rng.NextUint64(dim));
      val.push_back(rng.NextDouble(-0.1, 0.1));
    }
    std::sort(idx.begin(), idx.end());
    idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
    val.resize(idx.size());
    PS2_CHECK(s.client
                  ->PushSparse(RowRef{s.matrix_id, r}, SparseVector(idx, val))
                  .ok());
  }
}

/// Full pinned-epoch image of the model, for bit-stability comparison.
std::vector<std::vector<double>> SnapshotImage(const Setup& s, uint64_t epoch) {
  std::vector<PsClient::ServingRead> reads;
  for (uint32_t r = 0; r < kRows; ++r) {
    reads.push_back({RowRef{s.matrix_id, r}, {}});
  }
  return *s.client->ServingPullAsync(epoch, reads).Get();
}

double ModelNorm(const Setup& s) {
  double total = 0.0;
  for (uint32_t r = 0; r < kRows; ++r) {
    total += (*s.client
                   ->AggregateAsync({{AggKind::kNorm2Squared,
                                      {RowRef{s.matrix_id, r}}}})
                   .Get())[0]
                 .value;
  }
  return total;
}

}  // namespace

int main() {
  const double scale = bench::Scale();
  const uint64_t dim = static_cast<uint64_t>(4096 * scale) + 64;
  const double duration_s = 0.2 * scale;

  bench::Header("Serving tier: QPS, tail latency, shedding, interference",
                "snapshot-isolated online reads over the trained model "
                "(DESIGN.md §10); not from the paper, which trains only");
  bench::JsonReporter json("serving_qps");

  // ---- 1. Load sweep: under / near / past capacity. -----------------------
  std::printf("%-10s %-12s %-12s %-9s %-11s %-11s %-11s\n", "load",
              "offered_qps", "achieved", "shed%", "p50_us", "p95_us",
              "p99_us");
  for (double qps : {2000.0, 16000.0, 128000.0}) {
    Setup s = MakeSetup(dim);
    PS2_CHECK(s.master->serving_snapshots()->Publish().ok());
    ServingLoopOptions options;
    options.duration_s = duration_s;
    options.batch_max = 8;
    options.traffic = MakeTraffic(s, dim, qps);
    options.admission.max_queue_depth = 32;
    ServingReport r = *RunServingLoop(s.master.get(), s.client.get(), options);
    std::printf("%-10.0f %-12.0f %-12.0f %-9.2f %-11.1f %-11.1f %-11.1f\n",
                qps, r.offered_qps, r.achieved_qps, 100.0 * r.shed_rate,
                r.p50_us, r.p95_us, r.p99_us);
    char run[32];
    std::snprintf(run, sizeof(run), "qps%.0f", qps);
    json.AddRun(run, *s.cluster, r.span_s);
    AddServingFields(&json, r);
  }

  // ---- 2. Coalescing ablation at fixed load. ------------------------------
  uint64_t bytes_wire[2] = {0, 0};
  double p99[2] = {0, 0};
  for (int coalesce = 0; coalesce <= 1; ++coalesce) {
    Setup s = MakeSetup(dim);
    PS2_CHECK(s.master->serving_snapshots()->Publish().ok());
    ServingLoopOptions options;
    options.duration_s = duration_s;
    options.batch_max = 16;  // deep batches: plenty of hot-key overlap
    // Past capacity, so queues build and every batch actually fills — at low
    // load batches are size 1 and there is nothing to coalesce.
    options.traffic = MakeTraffic(s, dim, 64000.0);
    options.admission.max_queue_depth = 64;
    options.frontend.coalesce = coalesce == 1;
    ServingReport r = *RunServingLoop(s.master.get(), s.client.get(), options);
    bytes_wire[coalesce] = s.cluster->metrics().Get("net.bytes_wire");
    p99[coalesce] = r.p99_us;
    json.AddRun(coalesce ? "coalesce.on" : "coalesce.off", *s.cluster,
                r.span_s);
    AddServingFields(&json, r);
  }
  const double bytes_ratio = static_cast<double>(bytes_wire[0]) /
                             static_cast<double>(bytes_wire[1]);
  std::printf("\ncoalescing: %llu -> %llu wire bytes (%.2fx) | "
              "p99 %.1f -> %.1f us\n",
              static_cast<unsigned long long>(bytes_wire[0]),
              static_cast<unsigned long long>(bytes_wire[1]), bytes_ratio,
              p99[0], p99[1]);
  json.BeginRun("coalesce.summary");
  json.AddField("coalesce_bytes_ratio", bytes_ratio);

  // ---- 3. Train-while-serve: bit-stability + loss parity. -----------------
  constexpr uint64_t kIterations = 6;
  bool stable = true;
  double norm_with_serving = 0.0;
  {
    Setup s = MakeSetup(dim);
    PS2_CHECK(s.master->serving_snapshots()->Publish().ok());  // epoch 1
    for (uint64_t it = 1; it <= kIterations; ++it) {
      const uint64_t epoch = s.master->serving_snapshots()->epoch();
      auto before = SnapshotImage(s, epoch);
      TrainIteration(s, dim, it);  // epoch N+1 trains...
      // ...while epoch N serves: pinned reads plus a serving-loop burst.
      ServingLoopOptions options;
      options.duration_s = duration_s / kIterations;
      options.traffic = MakeTraffic(s, dim, 4000.0);
      options.admission.max_queue_depth = 32;
      ServingReport r =
          *RunServingLoop(s.master.get(), s.client.get(), options);
      (void)r;
      auto after = SnapshotImage(s, epoch);
      for (uint32_t row = 0; row < kRows; ++row) {
        if (std::memcmp(before[row].data(), after[row].data(),
                        before[row].size() * sizeof(double)) != 0) {
          stable = false;
        }
      }
      PS2_CHECK(s.master->serving_snapshots()->Publish().ok());
    }
    norm_with_serving = ModelNorm(s);
  }
  double norm_without_serving = 0.0;
  {
    Setup s = MakeSetup(dim);
    for (uint64_t it = 1; it <= kIterations; ++it) TrainIteration(s, dim, it);
    norm_without_serving = ModelNorm(s);
  }
  const bool parity = norm_with_serving == norm_without_serving;
  std::printf("train-while-serve: pinned reads bit-stable: %s | "
              "final |w|^2 with serving %.6f vs without %.6f -> parity %s\n",
              stable ? "yes" : "NO", norm_with_serving, norm_without_serving,
              parity ? "yes" : "NO");
  json.BeginRun("interference");
  json.AddField("epoch_stable", stable ? 1.0 : 0.0);
  json.AddField("loss_parity", parity ? 1.0 : 0.0);
  json.AddField("final_loss", norm_with_serving);

  json.Write();
  return (stable && parity) ? 0 : 1;
}
