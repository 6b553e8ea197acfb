// Elastic membership (DESIGN.md §12): online resharding under load.
//
// Two scenarios:
//
//  scaleout_2to8 — trains LR starting on 2 of 8 fleet slots and joins one
//    server every other stage until all 8 are active, with every key-range
//    migration running between stage barriers of the same training job. The
//    control: the identical job on a static 8-server cluster. Partition
//    boundaries are fixed at FLEET scale, so both runs use the same 8
//    partitions and the same per-column merge order — the elastic run must
//    reproduce the static loss curve bit-for-bit (loss_parity), just at a
//    different virtual time (2 servers are slower until the joins land).
//
//  skew_heal — one server starts with 3 of its 4 partitions hot (uniform
//    pulls over their columns) while the other 3 servers idle. Repeated
//    RebalanceOnce calls shed edge partitions off the busiest server until
//    the hot ranges are spread out; max/mean busy-time skew must drop >= 2x.
//
// check_bench.py gates the migrate.* fields (bytes moved, routing epochs,
// rebalance virtual time, skew reduction) plus loss_parity.

#include <cstdint>

#include "bench/bench_common.h"
#include "common/metrics.h"
#include "data/classification_gen.h"
#include "dcv/dcv_context.h"
#include "membership/membership_manager.h"
#include "ml/logreg.h"
#include "ps/ps_client.h"
#include "ps/ps_master.h"

namespace {

using namespace ps2;

struct ScaleoutResult {
  TrainReport report;
  int joins = 0;
  uint64_t routing_epoch = 0;
  uint64_t migrate_bytes = 0;
  uint64_t migrate_moves = 0;
  uint64_t migrate_migrations = 0;
  uint64_t routing_refetches = 0;
};

ScaleoutResult RunScaleout(Cluster* cluster, bool elastic) {
  ClassificationSpec ds;
  ds.rows = 20000;
  ds.dim = 4096;
  ds.avg_nnz = 32;
  ds.skew = 1.2;
  ds.seed = 11;
  Dataset<Example> data = MakeClassificationDataset(cluster, ds).Cache();
  data.Count();

  GlmOptions options;
  options.dim = ds.dim;
  options.optimizer.kind = OptimizerKind::kSgd;
  options.optimizer.learning_rate = 0.5;
  options.batch_fraction = 0.1;
  options.iterations = 30;
  options.seed = 5;

  cluster->metrics().Reset();
  DcvContext ctx(cluster);
  ScaleoutResult out;
  if (elastic) {
    // Join one server every other stage barrier until the fleet is full.
    // The hook runs on the stage-caller thread after the clock advances, so
    // every migration is interleaved with live training stages.
    PsMaster* master = ctx.master();
    int stage = 0;
    cluster->RegisterPostStageHook([master, &out, &stage](Cluster& c) {
      ++stage;
      if (stage % 2 != 0 || master->num_active_servers() >= 8) return;
      Result<int> added = master->AddServer();
      if (!added.ok()) {
        std::fprintf(stderr, "AddServer: %s\n",
                     added.status().ToString().c_str());
        return;
      }
      out.joins += 1;
      std::printf("   [t=%.4f] scale-out: server %d joined (routing epoch "
                  "%llu, %d active)\n",
                  c.clock().Now(), *added,
                  static_cast<unsigned long long>(master->routing_epoch()),
                  master->num_active_servers());
    });
  }
  out.report = *TrainGlmPs2(&ctx, data, options);
  const MetricsRegistry& m = cluster->metrics();
  out.routing_epoch = m.Get("ps.migration_epoch");
  out.migrate_bytes = m.Get("migrate.bytes");
  out.migrate_moves = m.Get("migrate.moves");
  out.migrate_migrations = m.Get("migrate.migrations");
  out.routing_refetches = m.Get("net.routing_refetches");
  return out;
}

/// max/mean of per-server busy-time deltas between two metric snapshots.
double BusySkew(const MetricsRegistry& m, const std::vector<int>& active,
                std::map<int, uint64_t>* last) {
  uint64_t total = 0, max_busy = 0;
  for (int s : active) {
    const uint64_t now = m.Get(ServerTaggedName("obs.server_busy_time", s));
    const uint64_t delta = now - (*last)[s];
    (*last)[s] = now;
    total += delta;
    if (delta > max_busy) max_busy = delta;
  }
  if (total == 0) return 0.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(active.size());
  return static_cast<double>(max_busy) / mean;
}

struct SkewHealResult {
  double skew_before = 0.0;
  double skew_after = 0.0;
  int rounds = 0;
  uint64_t migrate_bytes = 0;
  uint64_t routing_epoch = 0;
  double virtual_time_s = 0.0;
};

SkewHealResult RunSkewHeal() {
  ClusterSpec spec;
  spec.num_workers = 4;
  spec.num_servers = 4;
  spec.max_servers = 16;  // 16 fixed partitions -> 4 per active server
  Cluster cluster(spec);
  PsMaster master(&cluster);
  PsClient client(&master);

  MatrixOptions mo;
  mo.name = "weights";
  mo.dim = 4096;
  mo.reserve_rows = 1;
  const int id = *master.CreateMatrix(mo);
  const RowRef row{id, 0};
  Status seeded =
      client.WriteRowsAsync({row}, std::vector<double>(mo.dim, 1.0)).Wait();
  if (!seeded.ok()) {
    std::fprintf(stderr, "seed push: %s\n", seeded.ToString().c_str());
  }

  // Hot columns = partitions 0..2 (3 of the owning server's 4 partitions;
  // the 4th stays cold so edge moves can shed real load, not just ranges).
  const uint64_t hot_end = 3 * (mo.dim / 16);
  std::vector<uint64_t> hot(hot_end);
  for (uint64_t i = 0; i < hot_end; ++i) hot[i] = i;

  const std::vector<int> active = master.active_servers();
  std::map<int, uint64_t> last;
  auto chunk = [&] {
    for (int k = 0; k < 8; ++k) {
      Result<RowBlock> pulled =
          client.ReadRowsAsync({row}, RowSelector::Indices(hot)).Get();
      PS2_CHECK(pulled.ok());
    }
  };

  SkewHealResult out;
  BusySkew(cluster.metrics(), active, &last);  // baseline the counters
  chunk();
  out.skew_before = BusySkew(cluster.metrics(), active, &last);
  const double t0 = cluster.clock().Now();
  for (int round = 0; round < 16; ++round) {
    Result<bool> moved = master.RebalanceOnce(/*min_skew=*/1.25);
    if (!moved.ok()) {
      std::fprintf(stderr, "RebalanceOnce: %s\n",
                   moved.status().ToString().c_str());
      break;
    }
    if (!*moved) break;
    out.rounds += 1;
    chunk();
    const double skew = BusySkew(cluster.metrics(), active, &last);
    std::printf("   round %-2d skew %.3f\n", out.rounds, skew);
    out.skew_after = skew;
  }
  out.virtual_time_s = cluster.clock().Now() - t0;
  out.migrate_bytes = cluster.metrics().Get("migrate.bytes");
  out.routing_epoch = cluster.metrics().Get("ps.migration_epoch");
  return out;
}

}  // namespace

int main() {
  using namespace ps2;
  bench::Header("Elastic scale-out and skew healing",
                "online key-range migration: 2->8 servers mid-training with "
                "loss parity; rebalancer heals busy-time skew (DESIGN.md §12)");
  bench::JsonReporter json("elastic_scaleout");

  // -- scaleout_2to8 ------------------------------------------------------
  std::printf("-- scaleout 2->8 mid-training vs static 8\n");
  ClusterSpec elastic_spec;
  elastic_spec.num_workers = 8;
  elastic_spec.num_servers = 2;
  elastic_spec.max_servers = 8;
  Cluster elastic_cluster(elastic_spec);
  ScaleoutResult elastic = RunScaleout(&elastic_cluster, /*elastic=*/true);

  ClusterSpec static_spec;
  static_spec.num_workers = 8;
  static_spec.num_servers = 8;
  static_spec.max_servers = 8;
  Cluster static_cluster(static_spec);
  ScaleoutResult fixed = RunScaleout(&static_cluster, /*elastic=*/false);

  double curve_maxdiff = 0.0;
  const size_t points =
      std::min(elastic.report.curve.size(), fixed.report.curve.size());
  for (size_t i = 0; i < points; ++i) {
    curve_maxdiff = std::max(curve_maxdiff,
                             std::abs(elastic.report.curve[i].loss -
                                      fixed.report.curve[i].loss));
  }
  const bool parity = elastic.report.curve.size() ==
                          fixed.report.curve.size() &&
                      curve_maxdiff < 1e-12;

  std::printf("   %-10s %-8s %-10s %-10s %-12s %-8s\n", "run", "joins",
              "time(s)", "loss", "moved bytes", "epochs");
  std::printf("   %-10s %-8d %-10.4f %-10.6f %-12llu %-8llu\n", "elastic",
              elastic.joins, elastic.report.total_time,
              elastic.report.final_loss,
              static_cast<unsigned long long>(elastic.migrate_bytes),
              static_cast<unsigned long long>(elastic.routing_epoch));
  std::printf("   %-10s %-8d %-10.4f %-10.6f %-12llu %-8llu\n", "static8", 0,
              fixed.report.total_time, fixed.report.final_loss,
              static_cast<unsigned long long>(fixed.migrate_bytes),
              static_cast<unsigned long long>(fixed.routing_epoch));
  std::printf("   loss parity: %s (curve max |diff| %.3g)\n",
              parity ? "EXACT" : "BROKEN", curve_maxdiff);

  json.AddRun("scaleout.elastic", elastic_cluster, elastic.report.total_time);
  json.AddField("final_loss", elastic.report.final_loss);
  json.AddField("migrate.joins", elastic.joins);
  json.AddField("migrate.bytes", static_cast<double>(elastic.migrate_bytes));
  json.AddField("migrate.moves", static_cast<double>(elastic.migrate_moves));
  json.AddField("migrate.migrations",
                static_cast<double>(elastic.migrate_migrations));
  json.AddField("migrate.routing_epochs",
                static_cast<double>(elastic.routing_epoch));
  json.AddField("migrate.routing_refetches",
                static_cast<double>(elastic.routing_refetches));
  json.AddRun("scaleout.static8", static_cluster, fixed.report.total_time);
  json.AddField("final_loss", fixed.report.final_loss);
  json.BeginRun("scaleout.parity");
  json.AddField("loss_parity", parity ? 1.0 : 0.0);
  json.AddField("migrate.curve_max_absdiff", curve_maxdiff);
  json.AddField("migrate.elastic_vs_static_time",
                elastic.report.total_time / fixed.report.total_time);

  // -- skew_heal ----------------------------------------------------------
  std::printf("-- skew healing (4 active of 16 slots, 3 hot partitions)\n");
  SkewHealResult heal = RunSkewHeal();
  const double reduction =
      heal.skew_after > 0 ? heal.skew_before / heal.skew_after : 0.0;
  std::printf("   skew before %.3f after %.3f -> %.2fx in %d rounds "
              "(%.4f virtual s): %s\n",
              heal.skew_before, heal.skew_after, reduction, heal.rounds,
              heal.virtual_time_s, reduction >= 2.0 ? "HEALED" : "NOT HEALED");

  json.BeginRun("skew_heal");
  json.AddField("migrate.skew_before", heal.skew_before);
  json.AddField("migrate.skew_after", heal.skew_after);
  json.AddField("migrate.skew_reduction", reduction);
  json.AddField("migrate.skew_healed", reduction >= 2.0 ? 1.0 : 0.0);
  json.AddField("migrate.rebalance_rounds", heal.rounds);
  json.AddField("migrate.rebalance_virtual_time_s", heal.virtual_time_s);
  json.AddField("migrate.bytes", static_cast<double>(heal.migrate_bytes));
  json.AddField("migrate.routing_epochs",
                static_cast<double>(heal.routing_epoch));
  json.Write();
  return 0;
}
