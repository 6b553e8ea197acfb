#include "ml/factorization_machine.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/logging.h"
#include "ml/logreg.h"
#include "ml/metrics.h"

namespace ps2 {

double FmModel::Margin(const SparseVector& x, const std::vector<double>& w,
                       const std::vector<std::vector<double>>& v,
                       const std::vector<uint64_t>& index_of,
                       size_t support_size) {
  (void)support_size;
  // `w` and each `v[f]` are indexed by position in the batch support; the
  // example's feature ids map through `index_of` via binary search.
  double margin = 0;
  const auto& idx = x.indices();
  const auto& val = x.values();
  std::vector<size_t> pos(idx.size());
  for (size_t k = 0; k < idx.size(); ++k) {
    auto it = std::lower_bound(index_of.begin(), index_of.end(), idx[k]);
    PS2_CHECK(it != index_of.end() && *it == idx[k]);
    pos[k] = static_cast<size_t>(it - index_of.begin());
    margin += val[k] * w[pos[k]];
  }
  for (const auto& vf : v) {
    double sum = 0, sum_sq = 0;
    for (size_t k = 0; k < idx.size(); ++k) {
      double t = val[k] * vf[pos[k]];
      sum += t;
      sum_sq += t * t;
    }
    margin += 0.5 * (sum * sum - sum_sq);
  }
  return margin;
}

Result<TrainReport> TrainFmPs2(DcvContext* ctx, const Dataset<Example>& data,
                               const FmOptions& options, FmModel* model_out) {
  PS2_RETURN_NOT_OK(options.Validate());
  Cluster* cluster = ctx->cluster();
  const uint32_t k_factors = options.factors;

  // One co-located group of k+2 rows: w, V_1..V_k, gradient scratch is not
  // needed because FM pushes per-task gradients directly (add semantics).
  PS2_ASSIGN_OR_RETURN(Dcv weights,
                       ctx->Dense(options.dim, k_factors + 1, 1, 0,
                                  "fm.weights"));
  PS2_ASSIGN_OR_RETURN(std::vector<Dcv> factors,
                       ctx->DeriveN(weights, k_factors));
  // Factor rows start at small random values (required: V = 0 is a saddle
  // point where factor gradients vanish); server-side init.
  PS2_RETURN_NOT_OK(ctx->client()->MatrixInit(
      weights.ref().matrix_id, 1, k_factors + 1, options.factor_init,
      options.seed));

  std::vector<RowRef> all_rows;
  all_rows.push_back(weights.ref());
  for (const Dcv& f : factors) all_rows.push_back(f.ref());

  TrainReport report;
  report.system = "PS2-FM";
  const SimTime t0 = cluster->clock().Now();
  PsClient* client = ctx->client();
  const double lr = options.learning_rate;
  const double l2v = options.l2_factors;

  for (int iter = 0; iter < options.iterations; ++iter) {
    Dataset<Example> batch =
        data.Sample(options.batch_fraction,
                    options.seed * 1000003ULL + static_cast<uint64_t>(iter));
    std::vector<std::pair<double, uint64_t>> partials =
        batch.MapPartitionsCollect<std::pair<double, uint64_t>>(
            [&](TaskContext& task, const std::vector<Example>& rows)
                -> std::pair<double, uint64_t> {
              if (rows.empty()) return {0.0, 0};
              BatchIndex batch_index = CollectBatchIndices(rows);
              const std::vector<uint64_t>& support = batch_index.keys;

              // One round: the batch's support for all k+1 rows.
              Result<std::vector<std::vector<double>>> pulled =
                  client->ReadRowsAsync(all_rows, RowSelector::Indices(support))
                      .Get();
              PS2_CHECK(pulled.ok()) << pulled.status();
              const std::vector<double>& w_pulled = (*pulled)[0];
              std::vector<std::vector<double>> v_local(
                  pulled->begin() + 1, pulled->end());

              // Per-coordinate gradient accumulators over the support.
              std::vector<std::vector<double>> grad(
                  k_factors + 1, std::vector<double>(support.size(), 0.0));
              double loss_sum = 0;
              const uint32_t* pos = batch_index.slots.data();
              std::vector<double> factor_sums(k_factors);
              for (const Example& ex : rows) {
                const auto& idx = ex.features.indices();
                const auto& val = ex.features.values();
                double margin = 0;
                for (size_t k = 0; k < idx.size(); ++k) {
                  margin += val[k] * w_pulled[pos[k]];
                }
                for (uint32_t f = 0; f < k_factors; ++f) {
                  double sum = 0, sum_sq = 0;
                  for (size_t k = 0; k < idx.size(); ++k) {
                    double t = val[k] * v_local[f][pos[k]];
                    sum += t;
                    sum_sq += t * t;
                  }
                  factor_sums[f] = sum;
                  margin += 0.5 * (sum * sum - sum_sq);
                }
                loss_sum += LogisticLoss(margin, ex.label);
                double scale = LogisticGradientScale(margin, ex.label);
                for (size_t k = 0; k < idx.size(); ++k) {
                  grad[0][pos[k]] += scale * val[k];
                  for (uint32_t f = 0; f < k_factors; ++f) {
                    double vf = v_local[f][pos[k]];
                    grad[1 + f][pos[k]] +=
                        scale * val[k] * (factor_sums[f] - val[k] * vf) +
                        l2v * vf;
                  }
                }
                task.AddWorkerOps((2 + 6 * k_factors) * idx.size() + 8);
                pos += idx.size();
              }

              // SGD step applied locally, deltas pushed back (one round).
              const double step = -lr / static_cast<double>(rows.size());
              std::vector<SparseVector> deltas;
              deltas.reserve(k_factors + 1);
              for (uint32_t r = 0; r <= k_factors; ++r) {
                std::vector<uint64_t> di;
                std::vector<double> dv;
                for (size_t j = 0; j < support.size(); ++j) {
                  if (grad[r][j] != 0.0) {
                    di.push_back(support[j]);
                    dv.push_back(step * grad[r][j]);
                  }
                }
                deltas.emplace_back(std::move(di), std::move(dv));
              }
              PS2_CHECK_OK(
                  client->WriteRowsAsync(all_rows, deltas).Wait());
              return {loss_sum, rows.size()};
            });

    double loss_sum = 0;
    uint64_t count = 0;
    for (const auto& [l, c] : partials) {
      loss_sum += l;
      count += c;
    }
    if (count == 0) continue;
    TrainPoint point;
    point.iteration = iter;
    point.time = cluster->clock().Now() - t0;
    point.loss = loss_sum / static_cast<double>(count);
    report.curve.push_back(point);
    report.final_loss = point.loss;
  }
  report.total_time = cluster->clock().Now() - t0;
  if (model_out != nullptr) {
    model_out->weights = weights;
    model_out->factors = factors;
  }
  return report;
}

}  // namespace ps2
