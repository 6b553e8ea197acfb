#include "baselines/pspp_lr.h"

#include <algorithm>

#include "common/logging.h"
#include "ml/metrics.h"
#include "ml/optimizer.h"

namespace ps2 {

namespace {

/// Per-iteration result of a gradient task.
struct GradientPartial {
  double loss_sum = 0;
  uint64_t count = 0;
  std::vector<uint64_t> indices;  // features this task touched
};

}  // namespace

Result<TrainReport> TrainGlmPsPullPush(DcvContext* ctx,
                                       const Dataset<Example>& data,
                                       const GlmOptions& options) {
  PS2_RETURN_NOT_OK(options.Validate());
  Cluster* cluster = ctx->cluster();
  const int n_state = OptimizerStateVectors(options.optimizer.kind);

  PS2_ASSIGN_OR_RETURN(
      Dcv weight,
      ctx->Dense(options.dim, static_cast<uint32_t>(n_state + 2), 1, 0,
                 "pspp.weight"));
  PS2_ASSIGN_OR_RETURN(std::vector<Dcv> state, ctx->DeriveN(weight, n_state));
  PS2_ASSIGN_OR_RETURN(Dcv gradient, ctx->Derive(weight));
  for (Dcv& s : state) PS2_RETURN_NOT_OK(s.Zero());

  TrainReport report;
  report.system =
      std::string("PS-") + OptimizerKindName(options.optimizer.kind);
  const SimTime t0 = cluster->clock().Now();
  const GlmLossKind loss_kind = options.loss;
  const int num_workers = cluster->num_workers();

  for (int iter = 0; iter < options.iterations; ++iter) {
    PS2_RETURN_NOT_OK(gradient.Zero());

    // Gradient phase — identical to PS2 (sparse pull, local compute, sparse
    // push); tasks additionally report which features they touched.
    Dataset<Example> batch =
        data.Sample(options.batch_fraction,
                    options.seed * 1000003ULL + static_cast<uint64_t>(iter));
    std::vector<GradientPartial> partials =
        batch.MapPartitionsCollect<GradientPartial>(
            [&](TaskContext& task, const std::vector<Example>& rows) {
              GradientPartial gp;
              if (rows.empty()) return gp;
              BatchIndex batch_index = CollectBatchIndices(rows);
              Result<std::vector<double>> pulled =
                  weight.PullSparse(batch_index.keys);
              PS2_CHECK(pulled.ok()) << pulled.status();
              BatchGradient bg = ComputeBatchGradient(
                  rows, batch_index, pulled->data(), loss_kind);
              gp.indices = std::move(batch_index.keys);
              task.AddWorkerOps(bg.ops + gp.indices.size());
              PS2_CHECK_OK(gradient.Add(bg.gradient));
              gp.loss_sum = bg.loss_sum;
              gp.count = bg.count;
              return gp;
            });

    // The driver unions the touched-feature lists (extra coordination
    // traffic PS2 does not need) and splits them across update tasks.
    double loss_sum = 0;
    uint64_t count = 0;
    uint64_t index_bytes = 0;
    std::vector<uint64_t> touched;
    for (const GradientPartial& gp : partials) {
      loss_sum += gp.loss_sum;
      count += gp.count;
      index_bytes += 8 * gp.indices.size();
      touched.insert(touched.end(), gp.indices.begin(), gp.indices.end());
    }
    if (count == 0) continue;
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    const int n_tasks = static_cast<int>(partials.size());
    cluster->AdvanceClock(cluster->cost().GatherAtOne(
        n_tasks, index_bytes / std::max(1, n_tasks)));
    cluster->AdvanceClock(cluster->cost().ScatterFromOne(
        num_workers, 8 * touched.size() / std::max(1, num_workers)));

    // Update phase: each task pulls its slice of [w, s, v, g], applies the
    // optimizer locally, and pushes deltas back — the traffic PS2's zip
    // avoids entirely.
    const int64_t t_step = iter + 1;
    const double inv_count = 1.0 / static_cast<double>(count);
    const size_t per_task =
        (touched.size() + num_workers - 1) / std::max(1, num_workers);
    cluster->RunStage("pspp.update", static_cast<size_t>(num_workers),
                      [&](TaskContext& task) {
                        size_t lo = task.task_id * per_task;
                        size_t hi = std::min(touched.size(), lo + per_task);
                        if (lo >= hi) return;
                        std::vector<uint64_t> slice(touched.begin() + lo,
                                                    touched.begin() + hi);
                        const size_t n = slice.size();
                        auto pull = [&](const Dcv& d) {
                          Result<std::vector<double>> r = d.PullSparse(slice);
                          PS2_CHECK(r.ok()) << r.status();
                          return std::move(r).ValueOrDie();
                        };
                        std::vector<double> w_vals = pull(weight);
                        std::vector<double> g_vals = pull(gradient);
                        for (double& g : g_vals) g *= inv_count;
                        std::vector<double> s_vals, v_vals;
                        if (n_state >= 1) s_vals = pull(state[0]);
                        if (n_state >= 2) v_vals = pull(state[1]);
                        std::vector<double> w_old = w_vals;
                        std::vector<double> s_old = s_vals;
                        std::vector<double> v_old = v_vals;
                        uint64_t ops = ApplyOptimizerStep(
                            options.optimizer, t_step, w_vals.data(),
                            g_vals.data(),
                            s_vals.empty() ? nullptr : s_vals.data(),
                            v_vals.empty() ? nullptr : v_vals.data(), n);
                        task.AddWorkerOps(ops + 2 * n);
                        auto push_delta = [&](Dcv& d,
                                              const std::vector<double>& now,
                                              const std::vector<double>& old) {
                          std::vector<uint64_t> idx = slice;
                          std::vector<double> delta(n);
                          for (size_t k = 0; k < n; ++k) {
                            delta[k] = now[k] - old[k];
                          }
                          PS2_CHECK_OK(d.Add(
                              SparseVector(std::move(idx), std::move(delta))));
                        };
                        push_delta(weight, w_vals, w_old);
                        if (n_state >= 1) push_delta(state[0], s_vals, s_old);
                        if (n_state >= 2) push_delta(state[1], v_vals, v_old);
                      });

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
