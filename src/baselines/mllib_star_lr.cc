#include "baselines/mllib_star_lr.h"

#include <memory>

#include "common/logging.h"
#include "ml/metrics.h"
#include "ml/optimizer.h"

namespace ps2 {

Result<TrainReport> TrainGlmMllibStar(Cluster* cluster,
                                      const Dataset<Example>& data,
                                      const MllibStarOptions& options) {
  PS2_RETURN_NOT_OK(options.glm.Validate());
  if (options.local_steps_per_round <= 0) {
    return Status::InvalidArgument("local_steps_per_round must be positive");
  }
  if (options.glm.optimizer.kind != OptimizerKind::kSgd) {
    return Status::NotImplemented(
        "MLlib* model averaging is defined for SGD");
  }
  const uint64_t dim = options.glm.dim;
  const size_t num_partitions = data.num_partitions();

  // Per-worker model replicas (indexed by partition/task id).
  std::vector<std::vector<double>> replicas(
      num_partitions, std::vector<double>(dim, 0.0));

  TrainReport report;
  report.system = "MLlibStar-SGD";
  const SimTime t0 = cluster->clock().Now();
  const GlmLossKind loss_kind = options.glm.loss;
  const double lr = options.glm.optimizer.learning_rate;
  const int local_steps = options.local_steps_per_round;
  const int rounds =
      (options.glm.iterations + local_steps - 1) / local_steps;

  for (int round = 0; round < rounds; ++round) {
    // Local phase: each worker runs `local_steps` mini-batch SGD steps on
    // its own replica, using only its own partition.
    std::vector<std::pair<double, uint64_t>> partials =
        data.MapPartitionsCollect<std::pair<double, uint64_t>>(
            [&](TaskContext& task, const std::vector<Example>& rows)
                -> std::pair<double, uint64_t> {
              std::vector<double>& w = replicas[task.task_id];
              double loss_sum = 0;
              uint64_t count = 0;
              Rng rng = Rng(options.glm.seed * 2654435761ULL +
                            static_cast<uint64_t>(round))
                            .Split(task.task_id);
              for (int step = 0; step < local_steps; ++step) {
                // Local Bernoulli mini-batch of this partition.
                std::vector<Example> batch;
                for (const Example& ex : rows) {
                  if (rng.NextBernoulli(options.glm.batch_fraction)) {
                    batch.push_back(ex);
                  }
                }
                if (batch.empty()) continue;
                BatchGradient bg =
                    ComputeDenseBatchGradient(batch, w, loss_kind);
                task.AddWorkerOps(bg.ops);
                const double step_size = -lr / batch.size();
                const auto& gi = bg.gradient.indices();
                const auto& gv = bg.gradient.values();
                for (size_t k = 0; k < gi.size(); ++k) {
                  w[gi[k]] += step_size * gv[k];
                }
                loss_sum += bg.loss_sum;
                count += bg.count;
              }
              return {loss_sum, count};
            });

    // Averaging phase: ring allreduce of the full dense model.
    cluster->AdvanceClock(cluster->cost().RingAllReduce(
        static_cast<int>(num_partitions), dim * 8));
    cluster->metrics().Add("mllibstar.allreduce_bytes", dim * 8);
    std::vector<double> averaged(dim, 0.0);
    for (const auto& replica : replicas) {
      for (uint64_t j = 0; j < dim; ++j) averaged[j] += replica[j];
    }
    const double inv = 1.0 / static_cast<double>(num_partitions);
    for (double& x : averaged) x *= inv;
    for (auto& replica : replicas) replica = averaged;

    double loss_sum = 0;
    uint64_t count = 0;
    for (const auto& [l, c] : partials) {
      loss_sum += l;
      count += c;
    }
    if (count == 0) continue;
    TrainPoint point;
    point.iteration = round;
    point.time = cluster->clock().Now() - t0;
    point.loss = loss_sum / static_cast<double>(count);
    report.curve.push_back(point);
    report.final_loss = point.loss;
  }
  report.total_time = cluster->clock().Now() - t0;
  return report;
}

}  // namespace ps2
