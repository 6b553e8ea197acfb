// Ablation (paper §6.3.1): PS2's sparse communication — "when pulling model
// vectors from parameter server, PS2 supports sparse communication and only
// pulls the needed model parameters. However, Petuum has to pull all of the
// model." Sweeps the batch fraction and compares sparse-pull traffic/time
// against full-model pulls, plus the LDA-style varint count compression.

#include <algorithm>

#include "bench/bench_common.h"
#include "data/classification_gen.h"
#include "data/presets.h"
#include "dcv/dcv_context.h"
#include "ml/logreg.h"

int main() {
  using namespace ps2;
  bench::Header("Ablation: sparse pull vs full-model pull",
                "the mechanism behind PS2's 1.6-2.3x edge over Petuum");

  ClusterSpec spec;
  spec.num_workers = 20;
  spec.num_servers = 20;
  Cluster cluster(spec);
  const double scale = bench::Scale();
  ClassificationSpec ds = presets::Kdd12Like(scale);
  Dataset<Example> data = MakeClassificationDataset(&cluster, ds).Cache();
  data.Count();
  DcvContext ctx(&cluster);
  Dcv weight = *ctx.Dense(ds.dim, 2);

  std::printf("%-14s %-16s %-18s %-12s\n", "batch frac", "touched params",
              "sparse bytes", "vs full pull");
  const uint64_t full_bytes = ds.dim * 8 * 20;  // every worker, dense
  for (double fraction : {0.001, 0.01, 0.05, 0.2}) {
    cluster.metrics().Reset();
    Dataset<Example> batch = data.Sample(fraction, 99);
    std::vector<size_t> counts = batch.MapPartitionsCollect<size_t>(
        [&](TaskContext&, const std::vector<Example>& rows) {
          std::vector<uint64_t> indices = CollectBatchIndices(rows).keys;
          Result<std::vector<double>> pulled = weight.PullSparse(indices);
          PS2_CHECK(pulled.ok());
          return indices.size();
        });
    size_t touched = 0;
    for (size_t c : counts) touched += c;
    uint64_t sparse_bytes =
        cluster.metrics().Get("net.bytes_worker_to_server") +
        cluster.metrics().Get("net.bytes_server_to_worker");
    std::printf("%-14.3f %-16zu %-18llu %.1fx smaller\n", fraction, touched,
                static_cast<unsigned long long>(sparse_bytes),
                static_cast<double>(full_bytes) / sparse_bytes);
  }
  std::printf("(full dense pull by all 20 workers would move %llu bytes per "
              "iteration)\n",
              static_cast<unsigned long long>(full_bytes));

  std::printf("\ncount compression (LDA word-topic pulls):\n");
  {
    Dcv counts_row = *ctx.Dense(200000, 2, 1, 0, "ablation.counts");
    // Integer-valued content, as LDA count tables are.
    SparseVector init;
    {
      std::vector<uint64_t> idx;
      std::vector<double> val;
      Rng rng(3);
      for (uint64_t i = 0; i < 200000; i += 7) {
        idx.push_back(i);
        val.push_back(static_cast<double>(rng.NextUint64(50)));
      }
      init = SparseVector(std::move(idx), std::move(val));
    }
    PS2_CHECK_OK(counts_row.Add(init));
    std::vector<uint64_t> indices;
    for (uint64_t i = 0; i < 200000; i += 7) indices.push_back(i);

    // One blocking round whose bytes we meter in isolation.
    cluster.metrics().Reset();
    PS2_CHECK(ctx.client()
                  ->ReadRowsAsync({counts_row.ref()},
                                  RowSelector::Indices(indices))
                  .Get()
                  .ok());
    uint64_t plain = cluster.metrics().Get("net.bytes_server_to_worker");
    cluster.metrics().Reset();
    PS2_CHECK(ctx.client()
                  ->ReadRowsAsync({counts_row.ref()},
                                  RowSelector::Indices(indices).IntValues())
                  .Get()
                  .ok());
    uint64_t packed = cluster.metrics().Get("net.bytes_server_to_worker");
    std::printf("  f64 values: %llu bytes | varint counts: %llu bytes -> "
                "%.1fx smaller\n",
                static_cast<unsigned long long>(plain),
                static_cast<unsigned long long>(packed),
                static_cast<double>(plain) / packed);
  }
  return 0;
}
