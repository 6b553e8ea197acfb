#include "baselines/mllib_lr.h"

#include <memory>

#include "common/logging.h"
#include "dataflow/broadcast.h"
#include "ml/metrics.h"
#include "ml/optimizer.h"

namespace ps2 {

Result<MllibReport> TrainGlmMllib(Cluster* cluster,
                                  const Dataset<Example>& data,
                                  const GlmOptions& options,
                                  std::vector<double>* weights_out) {
  PS2_RETURN_NOT_OK(options.Validate());
  const uint64_t dim = options.dim;
  const int n_state = OptimizerStateVectors(options.optimizer.kind);

  // The driver holds the model and optimizer state as plain dense arrays —
  // the "single node" of the paper's analysis.
  auto w = std::make_shared<std::vector<double>>(dim, 0.0);
  std::vector<double> s(n_state >= 1 ? dim : 0, 0.0);
  std::vector<double> v(n_state >= 2 ? dim : 0, 0.0);
  std::vector<double> grad_dense(dim, 0.0);

  MllibReport out;
  out.report.system = std::string("Spark-") +
                      OptimizerKindName(options.optimizer.kind);
  const SimTime t0 = cluster->clock().Now();
  const GlmLossKind loss_kind = options.loss;

  for (int iter = 0; iter < options.iterations; ++iter) {
    // (1) Model broadcast: the full dense model goes to every executor.
    SimTime mark = cluster->clock().Now();
    Broadcast<std::shared_ptr<const std::vector<double>>> bw = BroadcastValue(
        cluster,
        std::shared_ptr<const std::vector<double>>(
            std::make_shared<std::vector<double>>(*w)),
        dim * sizeof(double));
    out.breakdown.broadcast += cluster->clock().Now() - mark;

    // (2) Gradient calculation on executors.
    mark = cluster->clock().Now();
    Dataset<Example> batch =
        data.Sample(options.batch_fraction,
                    options.seed * 1000003ULL + static_cast<uint64_t>(iter));
    std::vector<BatchGradient> partials =
        batch.MapPartitionsCollect<BatchGradient>(
            [&bw, loss_kind](TaskContext& task,
                             const std::vector<Example>& rows) {
              const std::vector<double>& weights = *bw.value();
              BatchGradient bg =
                  ComputeDenseBatchGradient(rows, weights, loss_kind);
              task.AddWorkerOps(bg.ops);
              return bg;
            });
    out.breakdown.compute += cluster->clock().Now() - mark;

    // (3) Gradient aggregation: every executor ships its gradient to the
    // driver. MLlib's aggregation buffer is DENSE (a dim-sized vector per
    // executor regardless of batch sparsity), which is exactly why this
    // step dominates Fig. 1(b) at high dimensions.
    mark = cluster->clock().Now();
    double loss_sum = 0;
    uint64_t count = 0;
    for (const BatchGradient& bg : partials) {
      loss_sum += bg.loss_sum;
      count += bg.count;
    }
    const int n_tasks = static_cast<int>(partials.size());
    const uint64_t dense_gradient_bytes = dim * 8;
    cluster->AdvanceClock(
        cluster->cost().GatherAtOne(n_tasks, dense_gradient_bytes));
    cluster->metrics().Add("net.bytes_gathered_at_driver",
                           dense_gradient_bytes * n_tasks);
    uint64_t agg_ops = 0;
    for (const BatchGradient& bg : partials) {
      bg.gradient.AxpyInto(&grad_dense, 1.0);
      agg_ops += 2 * bg.gradient.nnz();
    }
    cluster->ChargeDriver(cluster->cost().DriverCompute(agg_ops));
    out.breakdown.aggregate += cluster->clock().Now() - mark;

    // (4) Model update on the driver, across the full dense dimension.
    mark = cluster->clock().Now();
    if (count > 0) {
      const double inv = 1.0 / static_cast<double>(count);
      for (double& g : grad_dense) g *= inv;
      uint64_t update_ops = ApplyOptimizerStep(
          options.optimizer, iter + 1, w->data(), grad_dense.data(),
          s.empty() ? nullptr : s.data(), v.empty() ? nullptr : v.data(), dim);
      cluster->ChargeDriver(cluster->cost().DriverCompute(update_ops + dim));
      std::fill(grad_dense.begin(), grad_dense.end(), 0.0);
    }
    out.breakdown.update += cluster->clock().Now() - mark;

    if (count > 0) {
      TrainPoint point;
      point.iteration = iter;
      point.time = cluster->clock().Now() - t0;
      point.loss = loss_sum / static_cast<double>(count);
      out.report.curve.push_back(point);
      out.report.final_loss = point.loss;
    }
  }
  out.report.total_time = cluster->clock().Now() - t0;
  if (weights_out != nullptr) *weights_out = *w;
  return out;
}

}  // namespace ps2
