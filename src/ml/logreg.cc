#include "ml/logreg.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>

#include "common/logging.h"
#include "ml/async_glm.h"
#include "ml/metrics.h"

namespace ps2 {

BatchIndex CollectBatchIndices(const std::vector<Example>& batch) {
  size_t nnz = 0;
  for (const Example& ex : batch) nnz += ex.features.nnz();
  PS2_CHECK_LE(nnz, uint64_t{UINT32_MAX});
  // Every nonzero's (key, position) pair, sorted by key with an LSD radix
  // sort: one pass per 11-bit digit the largest key has, so a batch over a
  // 2M-feature space takes two counting passes where a comparison sort
  // takes ~14 mispredicted rounds.
  std::vector<uint64_t> key(nnz), key_next(nnz);
  std::vector<uint32_t> pos(nnz), pos_next(nnz);
  uint64_t max_key = 0;
  size_t i = 0;
  for (const Example& ex : batch) {
    for (uint64_t j : ex.features.indices()) {
      key[i] = j;
      pos[i] = static_cast<uint32_t>(i);
      max_key = std::max(max_key, j);
      ++i;
    }
  }
  constexpr int kDigitBits = 11;
  constexpr uint64_t kDigitMask = (uint64_t{1} << kDigitBits) - 1;
  for (int shift = 0; shift < 64 && (max_key >> shift) != 0;
       shift += kDigitBits) {
    std::array<uint32_t, kDigitMask + 1> start{};
    for (uint64_t k : key) ++start[(k >> shift) & kDigitMask];
    uint32_t sum = 0;
    for (uint32_t& s : start) sum += std::exchange(s, sum);
    for (size_t n = 0; n < nnz; ++n) {
      const uint32_t to = start[(key[n] >> shift) & kDigitMask]++;
      key_next[to] = key[n];
      pos_next[to] = pos[n];
    }
    key.swap(key_next);
    pos.swap(pos_next);
  }
  BatchIndex out;
  out.keys.reserve(nnz);
  out.slots.resize(nnz);
  for (size_t n = 0; n < nnz; ++n) {
    if (out.keys.empty() || out.keys.back() != key[n]) {
      out.keys.push_back(key[n]);
    }
    out.slots[pos[n]] = static_cast<uint32_t>(out.keys.size() - 1);
  }
  return out;
}

BatchGradient ComputeBatchGradient(const std::vector<Example>& rows,
                                   const BatchIndex& batch,
                                   const double* w_at_slot, GlmLossKind loss) {
  BatchGradient out;
  const size_t n = batch.keys.size();
  std::vector<double> grad(n, 0.0);
  // A key enters the gradient only once an example with a nonzero scale
  // touches it, as a sparse accumulator would have it.
  std::vector<uint8_t> touched(n, 0);
  const uint32_t* slot = batch.slots.data();
  for (const Example& ex : rows) {
    const std::vector<double>& val = ex.features.values();
    const size_t nnz = val.size();
    double margin = 0.0;
    for (size_t k = 0; k < nnz; ++k) margin += val[k] * w_at_slot[slot[k]];
    double scale = 0.0;
    if (loss == GlmLossKind::kLogistic) {
      out.loss_sum += LogisticLossAndScale(margin, ex.label, &scale);
    } else {
      out.loss_sum += HingeLoss(margin, ex.label);
      double y = ex.label > 0.5 ? 1.0 : -1.0;
      scale = (y * margin < 1.0) ? -y : 0.0;
    }
    if (scale != 0.0) {
      for (size_t k = 0; k < nnz; ++k) {
        grad[slot[k]] += scale * val[k];
        touched[slot[k]] = 1;
      }
    }
    out.ops += 4 * nnz + 8;
    ++out.count;
    slot += nnz;
  }
  PS2_DCHECK(slot == batch.slots.data() + batch.slots.size())
      << "batch index built from other rows";
  std::vector<uint64_t> gi;
  std::vector<double> gv;
  gi.reserve(n);
  gv.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    if (touched[s] == 0) continue;
    gi.push_back(batch.keys[s]);
    gv.push_back(grad[s]);
  }
  out.gradient = SparseVector::FromSorted(std::move(gi), std::move(gv));
  return out;
}

BatchGradient ComputeDenseBatchGradient(const std::vector<Example>& rows,
                                        const std::vector<double>& w,
                                        GlmLossKind loss) {
  BatchIndex batch_index = CollectBatchIndices(rows);
  std::vector<double> w_at_slot(batch_index.keys.size());
  for (size_t s = 0; s < w_at_slot.size(); ++s) {
    w_at_slot[s] = w[batch_index.keys[s]];
  }
  return ComputeBatchGradient(rows, batch_index, w_at_slot.data(), loss);
}

Result<TrainReport> TrainGlmPs2(DcvContext* ctx, const Dataset<Example>& data,
                                const GlmOptions& options, Dcv* weight_out) {
  PS2_RETURN_NOT_OK(options.Validate());
  // SSP/ASP route through the consistency controller (consistency/,
  // DESIGN.md §11). BSP continues below on the unchanged synchronous path,
  // so the default traces stay bit-identical to the pre-controller code.
  if (!options.consistency.bsp()) {
    if (weight_out != nullptr) {
      return Status::InvalidArgument(
          "weight_out is only supported under bsp consistency");
    }
    return TrainGlmPs2Relaxed(ctx, data, options);
  }
  Cluster* cluster = ctx->cluster();
  const int n_state = OptimizerStateVectors(options.optimizer.kind);

  // Fig. 3 lines 3-7: one dense DCV for the weights; optimizer state and the
  // gradient are derived so all vectors are dimension co-located.
  PS2_ASSIGN_OR_RETURN(
      Dcv weight,
      ctx->Dense(options.dim, static_cast<uint32_t>(n_state + 2), 1, 0,
                 "glm.weight"));
  PS2_ASSIGN_OR_RETURN(std::vector<Dcv> state,
                       ctx->DeriveN(weight, n_state));
  PS2_ASSIGN_OR_RETURN(Dcv gradient, ctx->Derive(weight));
  for (Dcv& s : state) PS2_RETURN_NOT_OK(s.Zero());

  auto step = std::make_shared<std::atomic<int64_t>>(0);
  const int zip_udf = ctx->RegisterZip(
      MakeOptimizerZip(options.optimizer, step), n_state + 2);

  TrainReport report;
  report.system = std::string("PS2-") +
                  OptimizerKindName(options.optimizer.kind);
  if (options.hotspot.enabled) {
    PS2_RETURN_NOT_OK(ctx->master()->hotspot()->Enable(options.hotspot));
  }
  const SimTime t0 = cluster->clock().Now();
  const GlmLossKind loss_kind = options.loss;

  for (int iter = 0; iter < options.iterations; ++iter) {
    // Fig. 3 line 10: gradient.zero().
    PS2_RETURN_NOT_OK(gradient.Zero());

    // Fig. 3 lines 12-19: sample, pull (sparse), compute, push, barrier.
    Dataset<Example> batch =
        data.Sample(options.batch_fraction,
                    options.seed * 1000003ULL + static_cast<uint64_t>(iter));
    std::vector<std::pair<double, uint64_t>> partials =
        batch.MapPartitionsCollect<std::pair<double, uint64_t>>(
            [&](TaskContext& task, const std::vector<Example>& rows)
                -> std::pair<double, uint64_t> {
              if (rows.empty()) return {0.0, 0};
              BatchIndex batch_index = CollectBatchIndices(rows);
              Result<std::vector<double>> pulled =
                  weight.PullSparse(batch_index.keys);
              PS2_CHECK(pulled.ok()) << pulled.status();
              BatchGradient bg = ComputeBatchGradient(
                  rows, batch_index, pulled->data(), loss_kind);
              task.AddWorkerOps(bg.ops + batch_index.keys.size());
              // Gradient push is the task's LAST operation (the paper's
              // task-failure-safety argument, §5.3).
              PS2_CHECK_OK(gradient.Add(bg.gradient));
              return {bg.loss_sum, bg.count};
            });

    double loss_sum = 0;
    uint64_t count = 0;
    for (const auto& [l, c] : partials) {
      loss_sum += l;
      count += c;
    }
    if (count == 0) continue;  // degenerate sample; skip the update

    // Fig. 3 lines 21-26: server-side model update via zip. Normalize the
    // summed gradient first (also a server-side column op).
    PS2_RETURN_NOT_OK(gradient.Scale(1.0 / static_cast<double>(count)));
    step->fetch_add(1);
    std::vector<Dcv> zip_rows = state;
    zip_rows.push_back(gradient);
    PS2_RETURN_NOT_OK(weight.Zip(zip_rows, zip_udf));

    if (options.checkpoint_every > 0 &&
        (iter + 1) % options.checkpoint_every == 0) {
      PS2_RETURN_NOT_OK(ctx->master()->CheckpointAll());
    }

    // Coordinator-side, after the zip: refreshed cache values reflect this
    // iteration's update, keeping staleness to the configured bound.
    if (options.hotspot.enabled) {
      PS2_RETURN_NOT_OK(ctx->master()->hotspot()->Tick());
    }

    TrainPoint point;
    point.iteration = iter;
    point.time = cluster->clock().Now() - t0;
    point.loss = loss_sum / static_cast<double>(count);
    report.curve.push_back(point);
    report.final_loss = point.loss;
  }
  report.total_time = cluster->clock().Now() - t0;
  if (weight_out != nullptr) *weight_out = weight;
  return report;
}

}  // namespace ps2
