#include "ml/lbfgs.h"

#include <cmath>

#include "common/logging.h"
#include "ml/metrics.h"

namespace ps2 {

namespace {

/// Full-batch loss and gradient: gradient lands in `gradient` (zeroed
/// first); returns (loss_sum, count).
Result<std::pair<double, uint64_t>> ComputeFullGradient(
    const Dataset<Example>& data, const Dcv& weight, Dcv& gradient,
    GlmLossKind loss_kind) {
  PS2_RETURN_NOT_OK(gradient.Zero());
  std::vector<std::pair<double, uint64_t>> partials =
      data.MapPartitionsCollect<std::pair<double, uint64_t>>(
          [&](TaskContext& task, const std::vector<Example>& rows)
              -> std::pair<double, uint64_t> {
            if (rows.empty()) return {0.0, 0};
            BatchIndex batch_index = CollectBatchIndices(rows);
            Result<std::vector<double>> pulled =
                weight.PullSparse(batch_index.keys);
            PS2_CHECK(pulled.ok()) << pulled.status();
            BatchGradient bg = ComputeBatchGradient(rows, batch_index,
                                                    pulled->data(), loss_kind);
            task.AddWorkerOps(bg.ops + batch_index.keys.size());
            PS2_CHECK_OK(gradient.Add(bg.gradient));
            return {bg.loss_sum, bg.count};
          });
  double loss_sum = 0;
  uint64_t count = 0;
  for (const auto& [l, c] : partials) {
    loss_sum += l;
    count += c;
  }
  return std::make_pair(loss_sum, count);
}

/// Full-batch loss only (for backtracking line search).
Result<double> ComputeFullLoss(const Dataset<Example>& data, const Dcv& weight,
                               GlmLossKind loss_kind) {
  std::vector<std::pair<double, uint64_t>> partials =
      data.MapPartitionsCollect<std::pair<double, uint64_t>>(
          [&](TaskContext& task, const std::vector<Example>& rows)
              -> std::pair<double, uint64_t> {
            if (rows.empty()) return {0.0, 0};
            BatchIndex batch_index = CollectBatchIndices(rows);
            Result<std::vector<double>> pulled =
                weight.PullSparse(batch_index.keys);
            PS2_CHECK(pulled.ok()) << pulled.status();
            // The gradient pass's loss; its gradient goes unused here.
            BatchGradient bg = ComputeBatchGradient(rows, batch_index,
                                                    pulled->data(), loss_kind);
            task.AddWorkerOps(rows.size() * 8);
            return {bg.loss_sum, bg.count};
          });
  double loss_sum = 0;
  uint64_t count = 0;
  for (const auto& [l, c] : partials) {
    loss_sum += l;
    count += c;
  }
  return count > 0 ? loss_sum / static_cast<double>(count) : 0.0;
}

}  // namespace

Result<TrainReport> TrainLbfgsPs2(DcvContext* ctx,
                                  const Dataset<Example>& data,
                                  const LbfgsOptions& options,
                                  Dcv* weight_out) {
  PS2_RETURN_NOT_OK(options.Validate());
  Cluster* cluster = ctx->cluster();
  const int m = options.history;

  // 3 + 2m co-located vectors: w, g, q/direction, s_0..s_{m-1}, y_0..y_{m-1}.
  PS2_ASSIGN_OR_RETURN(
      Dcv weight, ctx->Dense(options.dim, static_cast<uint32_t>(3 + 2 * m), 1,
                             0, "lbfgs.weight"));
  PS2_ASSIGN_OR_RETURN(Dcv gradient, ctx->Derive(weight));
  PS2_ASSIGN_OR_RETURN(Dcv q, ctx->Derive(weight));
  PS2_ASSIGN_OR_RETURN(std::vector<Dcv> s_hist, ctx->DeriveN(weight, m));
  PS2_ASSIGN_OR_RETURN(std::vector<Dcv> y_hist, ctx->DeriveN(weight, m));
  std::vector<double> rho(m, 0.0);

  TrainReport report;
  report.system = "PS2-LBFGS";
  const SimTime t0 = cluster->clock().Now();

  PS2_ASSIGN_OR_RETURN(auto first_eval, ComputeFullGradient(
                                            data, weight, gradient,
                                            options.loss));
  double current_loss =
      first_eval.second > 0
          ? first_eval.first / static_cast<double>(first_eval.second)
          : 0.0;
  const double inv_count =
      first_eval.second > 0 ? 1.0 / static_cast<double>(first_eval.second)
                            : 0.0;
  PS2_RETURN_NOT_OK(gradient.Scale(inv_count));
  if (options.l2 > 0) PS2_RETURN_NOT_OK(gradient.Axpy(weight, options.l2));

  int stored = 0;  // valid history entries
  for (int iter = 0; iter < options.iterations; ++iter) {
    // ---- Two-loop recursion, entirely server-side column ops ----
    PS2_RETURN_NOT_OK(q.CopyFrom(gradient));
    std::vector<double> alpha(m, 0.0);
    for (int k = stored - 1; k >= std::max(0, stored - m); --k) {
      int slot = k % m;
      PS2_ASSIGN_OR_RETURN(double sq, s_hist[slot].Dot(q));
      alpha[slot] = rho[slot] * sq;
      PS2_RETURN_NOT_OK(q.Axpy(y_hist[slot], -alpha[slot]));
    }
    if (stored > 0) {
      int last = (stored - 1) % m;
      PS2_ASSIGN_OR_RETURN(double yy, y_hist[last].Dot(y_hist[last]));
      if (yy > 0 && rho[last] > 0) {
        PS2_RETURN_NOT_OK(q.Scale(1.0 / (rho[last] * yy)));
      }
    }
    for (int k = std::max(0, stored - m); k < stored; ++k) {
      int slot = k % m;
      PS2_ASSIGN_OR_RETURN(double yq, y_hist[slot].Dot(q));
      double beta = rho[slot] * yq;
      PS2_RETURN_NOT_OK(q.Axpy(s_hist[slot], alpha[slot] - beta));
    }
    // q now approximates H^{-1} g; the step direction is -q.

    // ---- Backtracking line search on the full-batch loss ----
    double step = options.initial_step;
    double new_loss = current_loss;
    bool accepted = false;
    for (int bt = 0; bt <= options.max_backtracks; ++bt) {
      PS2_RETURN_NOT_OK(weight.Axpy(q, -step));
      PS2_ASSIGN_OR_RETURN(new_loss,
                           ComputeFullLoss(data, weight, options.loss));
      if (new_loss < current_loss) {
        accepted = true;
        break;
      }
      PS2_RETURN_NOT_OK(weight.Axpy(q, step));  // undo
      step *= options.backtrack_factor;
    }
    if (!accepted) {
      // Gradient-direction fallback with a tiny step.
      PS2_RETURN_NOT_OK(weight.Axpy(gradient, -1e-3));
    }

    // ---- Curvature update: s = -step*q (or fallback), y = g_new - g ----
    int slot = stored % m;
    PS2_RETURN_NOT_OK(s_hist[slot].CopyFrom(q));
    PS2_RETURN_NOT_OK(
        s_hist[slot].Scale(accepted ? -step : 0.0));
    PS2_RETURN_NOT_OK(y_hist[slot].CopyFrom(gradient));  // old gradient

    PS2_ASSIGN_OR_RETURN(auto eval, ComputeFullGradient(data, weight,
                                                        gradient,
                                                        options.loss));
    current_loss = eval.second > 0
                       ? eval.first / static_cast<double>(eval.second)
                       : current_loss;
    PS2_RETURN_NOT_OK(gradient.Scale(
        eval.second > 0 ? 1.0 / static_cast<double>(eval.second) : 1.0));
    if (options.l2 > 0) {
      PS2_RETURN_NOT_OK(gradient.Axpy(weight, options.l2));
    }
    // y = g_new - g_old, computed in place server-side.
    PS2_RETURN_NOT_OK(y_hist[slot].Scale(-1.0));
    PS2_RETURN_NOT_OK(y_hist[slot].Axpy(gradient, 1.0));

    PS2_ASSIGN_OR_RETURN(double sy, s_hist[slot].Dot(y_hist[slot]));
    if (accepted && sy > 1e-12) {
      rho[slot] = 1.0 / sy;
      ++stored;
    }

    TrainPoint point;
    point.iteration = iter;
    point.time = cluster->clock().Now() - t0;
    point.loss = current_loss;
    report.curve.push_back(point);
    report.final_loss = point.loss;
  }
  report.total_time = cluster->clock().Now() - t0;
  if (weight_out != nullptr) *weight_out = weight;
  return report;
}

}  // namespace ps2
