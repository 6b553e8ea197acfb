#pragma once

// Relaxed-consistency (SSP/ASP) GLM training on PS2.
//
// The paper's Fig. 3 flow is bulk-synchronous: one barrier per mini-batch.
// Real parameter servers (Petuum's SSP, Angel's async mode) let workers run
// several steps between synchronizations, trading gradient freshness for
// barrier elimination. This trainer routes that tradeoff through the
// ConsistencyController (consistency/, DESIGN.md §11): each stage runs a
// window of StepsPerStage local mini-batch SGD steps per task, every pull
// is gated on the bounded-staleness check, and every completed step
// advances the worker's clock on the servers via kClockAdvance. Workers
// push `-lr * gradient` deltas straight into the weight DCV (servers apply
// additively, so updates interleave across workers like an async PS).
//
// `bench/staleness_sweep` sweeps the slack knob: more local steps per stage
// amortize the per-stage latency floor, while convergence per epoch
// degrades gracefully.

#include "common/result.h"
#include "data/types.h"
#include "dataflow/dataset.h"
#include "dcv/dcv_context.h"
#include "ml/logreg.h"
#include "ml/train_report.h"

namespace ps2 {

/// Trains a GLM under `options.consistency` through the consistency
/// controller (SGD only: the update must be an additive delta for
/// concurrent pushes to compose). Handles any policy — a BSP policy runs a
/// one-step window per stage — but TrainGlmPs2 only routes SSP/ASP here;
/// the synchronous Fig. 3 flow stays on its own (bit-stable) path.
Result<TrainReport> TrainGlmPs2Relaxed(DcvContext* ctx,
                                       const Dataset<Example>& data,
                                       const GlmOptions& options);

}  // namespace ps2
