#include "baselines/petuum_lr.h"

#include "common/logging.h"
#include "ml/metrics.h"

namespace ps2 {

Result<TrainReport> TrainGlmPetuum(DcvContext* ctx,
                                   const Dataset<Example>& data,
                                   const GlmOptions& options) {
  PS2_RETURN_NOT_OK(options.Validate());
  if (options.optimizer.kind != OptimizerKind::kSgd) {
    return Status::NotImplemented(
        "the Petuum baseline supports SGD only (paper §6.3.1: 'Adam is not "
        "adopted because most of these systems do not support Adam')");
  }
  Cluster* cluster = ctx->cluster();

  PS2_ASSIGN_OR_RETURN(Dcv weight,
                       ctx->Dense(options.dim, 2, 1, 0, "petuum.weight"));
  PS2_ASSIGN_OR_RETURN(Dcv gradient, ctx->Derive(weight));

  TrainReport report;
  report.system = "Petuum-SGD";
  const SimTime t0 = cluster->clock().Now();
  const GlmLossKind loss_kind = options.loss;

  for (int iter = 0; iter < options.iterations; ++iter) {
    PS2_RETURN_NOT_OK(gradient.Zero());
    Dataset<Example> batch =
        data.Sample(options.batch_fraction,
                    options.seed * 1000003ULL + static_cast<uint64_t>(iter));
    std::vector<std::pair<double, uint64_t>> partials =
        batch.MapPartitionsCollect<std::pair<double, uint64_t>>(
            [&](TaskContext& task, const std::vector<Example>& rows)
                -> std::pair<double, uint64_t> {
              if (rows.empty()) return {0.0, 0};
              // Full dense model pull — the Petuum behaviour under test.
              Result<std::vector<double>> pulled = weight.Pull();
              PS2_CHECK(pulled.ok()) << pulled.status();
              BatchGradient bg =
                  ComputeDenseBatchGradient(rows, *pulled, loss_kind);
              task.AddWorkerOps(bg.ops);
              PS2_CHECK_OK(gradient.Add(bg.gradient));
              return {bg.loss_sum, bg.count};
            });

    double loss_sum = 0;
    uint64_t count = 0;
    for (const auto& [l, c] : partials) {
      loss_sum += l;
      count += c;
    }
    if (count == 0) continue;
    // Server applies the scaled increment (Petuum's server-side "inc"):
    // w += (-lr/count) * g.
    PS2_RETURN_NOT_OK(weight.Axpy(
        gradient, -options.optimizer.learning_rate /
                      static_cast<double>(count)));

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
