#include "ml/async_glm.h"

#include <optional>
#include <utility>

#include "common/logging.h"
#include "consistency/consistency.h"
#include "ml/metrics.h"

namespace ps2 {

Result<TrainReport> TrainGlmPs2Relaxed(DcvContext* ctx,
                                       const Dataset<Example>& data,
                                       const GlmOptions& options) {
  PS2_RETURN_NOT_OK(options.Validate());
  if (options.optimizer.kind != OptimizerKind::kSgd) {
    return Status::NotImplemented(
        "relaxed-consistency training composes additive deltas; only SGD "
        "qualifies");
  }
  Cluster* cluster = ctx->cluster();
  const ConsistencyPolicy& policy = options.consistency;
  const int num_workers = static_cast<int>(data.num_partitions());
  ConsistencyController controller(ctx->client(), num_workers, policy);
  PS2_RETURN_NOT_OK(controller.Register());

  PS2_ASSIGN_OR_RETURN(Dcv weight,
                       ctx->Dense(options.dim, 2, 1, 0, "async_glm.weight"));

  TrainReport report;
  report.system = "PS2-AsyncSGD";
  const SimTime t0 = cluster->clock().Now();
  const GlmLossKind loss_kind = options.loss;
  const double lr = options.optimizer.learning_rate;

  int done = 0;
  for (int round = 0; done < options.iterations; ++round) {
    const int window = policy.StepsPerStage(options.iterations - done);
    const int stage_base = done;
    // One stage, `window` local steps per task: pulls see whatever mixture
    // of other workers' pushes has landed. The window never exceeds
    // slack + 1, so the gate below cannot trip mid-stage — the SSP bound
    // holds by construction and the trace stays deterministic.
    std::vector<std::pair<double, uint64_t>> partials =
        data.MapPartitionsCollect<std::pair<double, uint64_t>>(
            [&](TaskContext& task, const std::vector<Example>& rows)
                -> std::pair<double, uint64_t> {
              double loss_sum = 0;
              uint64_t count = 0;

              // A step's mini-batch plus its slot index.
              struct StepBatch {
                std::vector<Example> batch;
                BatchIndex index;
              };
              int next_step = 0;
              auto next_batch = [&]() -> std::optional<StepBatch> {
                while (next_step < window) {
                  // Local Bernoulli mini-batch, seeded like the sync
                  // trainer (global step index: stages may vary in size).
                  int step = next_step++;
                  uint64_t batch_seed =
                      options.seed * 1000003ULL +
                      static_cast<uint64_t>(stage_base + step);
                  Rng rng(batch_seed ^ (0x5A111E00ULL + task.task_id));
                  StepBatch sb;
                  for (const Example& ex : rows) {
                    if (rng.NextBernoulli(options.batch_fraction)) {
                      sb.batch.push_back(ex);
                    }
                  }
                  if (sb.batch.empty()) continue;
                  sb.index = CollectBatchIndices(sb.batch);
                  return sb;
                }
                return std::nullopt;
              };

              // Prefetch pipeline (paper §5.1): the pull for step i+1 is
              // issued while step i's gradient push is still in flight, so
              // the two ops share one round of latency and the pulled
              // weights are at most one local push stale — a tightening of
              // the stage-level bounded staleness this trainer already
              // accepts. Every pull passes the staleness gate first.
              std::optional<StepBatch> cur = next_batch();
              PsFuture<std::vector<double>> pull_future;
              PsFuture<Ack> push_future;
              PsFuture<Ack> clock_future;
              int advanced = 0;
              if (cur) {
                controller.GatePull(task.task_id);
                pull_future = weight.PullSparseAsync(cur->index.keys);
              }
              while (cur) {
                // Sampling the next batch is local compute that overlaps
                // the in-flight pull.
                std::optional<StepBatch> nxt = next_batch();
                Result<std::vector<double>> pulled = pull_future.Get();
                PS2_CHECK(pulled.ok()) << pulled.status();
                BatchGradient bg = ComputeBatchGradient(
                    cur->batch, cur->index, pulled->data(), loss_kind);
                task.AddWorkerOps(bg.ops + cur->index.keys.size());
                // Apply directly: push -lr/|batch| * g into the weights.
                SparseVector delta = bg.gradient;
                delta.ScaleInPlace(-lr / static_cast<double>(bg.count));
                if (push_future.valid()) PS2_CHECK_OK(push_future.Wait());
                if (clock_future.valid()) PS2_CHECK_OK(clock_future.Wait());
                push_future = weight.AddAsync(delta);
                // The clock advance rides the push round: one more small
                // message per server, no extra latency window.
                clock_future = controller.AdvanceClockAsync(task.task_id);
                ++advanced;
                if (nxt) {
                  // Rides the push round just issued.
                  controller.GatePull(task.task_id);
                  pull_future = weight.PullSparseAsync(nxt->index.keys);
                }
                loss_sum += bg.loss_sum;
                count += bg.count;
                cur = std::move(nxt);
              }
              if (push_future.valid()) PS2_CHECK_OK(push_future.Wait());
              if (clock_future.valid()) PS2_CHECK_OK(clock_future.Wait());
              // Steps whose Bernoulli sample came up empty still tick the
              // clock: every worker leaves the stage at stage_base + window,
              // which is what keeps the gate from blocking mid-stage.
              for (; advanced < window; ++advanced) {
                PS2_CHECK_OK(controller.AdvanceClock(task.task_id));
              }
              return {loss_sum, count};
            });

    done += window;
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
