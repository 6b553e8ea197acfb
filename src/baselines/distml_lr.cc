#include "baselines/distml_lr.h"

#include "common/logging.h"
#include "ml/metrics.h"

namespace ps2 {

namespace {
// DistML "always fails to run on CTR dataset with some bugs we cannot fix"
// (paper §6.3.1). We surface that as a hard failure above this model size.
constexpr uint64_t kDistmlMaxDim = 1500000;
// Bug #2 (see header): workers reuse a stale model snapshot this long.
constexpr int kModelRefreshPeriod = 3;
}  // namespace

Result<TrainReport> TrainGlmDistml(DcvContext* ctx,
                                   const Dataset<Example>& data,
                                   const GlmOptions& options) {
  PS2_RETURN_NOT_OK(options.Validate());
  if (options.optimizer.kind != OptimizerKind::kSgd) {
    return Status::NotImplemented("the DistML baseline supports SGD only");
  }
  if (options.dim > kDistmlMaxDim) {
    return Status::Unavailable(
        "DistML fails on CTR-scale models (reproducing the paper's observed "
        "crash)");
  }
  Cluster* cluster = ctx->cluster();

  PS2_ASSIGN_OR_RETURN(Dcv weight,
                       ctx->Dense(options.dim, 2, 1, 0, "distml.weight"));
  PS2_ASSIGN_OR_RETURN(Dcv gradient, ctx->Derive(weight));

  TrainReport report;
  report.system = "DistML-SGD";
  const SimTime t0 = cluster->clock().Now();
  const GlmLossKind loss_kind = options.loss;
  // Bug #2: the worker-side model snapshot, refreshed only periodically.
  auto snapshot = std::make_shared<std::vector<double>>(options.dim, 0.0);

  for (int iter = 0; iter < options.iterations; ++iter) {
    PS2_RETURN_NOT_OK(gradient.Zero());
    if (iter % kModelRefreshPeriod == 0) {
      PS2_ASSIGN_OR_RETURN(*snapshot, weight.Pull());
    }
    Dataset<Example> batch =
        data.Sample(options.batch_fraction,
                    options.seed * 1000003ULL + static_cast<uint64_t>(iter));
    std::vector<std::pair<double, uint64_t>> partials =
        batch.MapPartitionsCollect<std::pair<double, uint64_t>>(
            [&](TaskContext& task, const std::vector<Example>& rows)
                -> std::pair<double, uint64_t> {
              if (rows.empty()) return {0.0, 0};
              // Workers still issue the (full, dense) pull — the traffic is
              // real — but compute against the stale snapshot, as the racy
              // client cache did.
              Result<std::vector<double>> pulled = weight.Pull();
              PS2_CHECK(pulled.ok()) << pulled.status();
              BatchGradient bg =
                  ComputeDenseBatchGradient(rows, *snapshot, loss_kind);
              task.AddWorkerOps(bg.ops);
              // Bug #1: per-worker normalization before the push, so the
              // aggregate is ~num_workers times the true mean gradient.
              SparseVector local = bg.gradient;
              local.ScaleInPlace(1.0 / static_cast<double>(bg.count));
              PS2_CHECK_OK(gradient.Add(local));
              return {bg.loss_sum, bg.count};
            });

    double loss_sum = 0;
    uint64_t count = 0;
    for (const auto& [l, c] : partials) {
      loss_sum += l;
      count += c;
    }
    if (count == 0) continue;
    PS2_RETURN_NOT_OK(
        weight.Axpy(gradient, -options.optimizer.learning_rate));

    TrainPoint point;
    point.iteration = iter;
    point.time = cluster->clock().Now() - t0;
    point.loss = loss_sum / static_cast<double>(count);
    report.curve.push_back(point);
    report.final_loss = point.loss;
  }
  report.total_time = cluster->clock().Now() - t0;
  return report;
}

}  // namespace ps2
