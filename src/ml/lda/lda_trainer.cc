#include "ml/lda/lda_trainer.h"

#include "common/logging.h"
#include "consistency/consistency.h"
#include "dcv/dcv_batch.h"

namespace ps2 {

Result<TrainReport> TrainLdaPs2(DcvContext* ctx, const Dataset<Document>& docs,
                                const LdaOptions& options,
                                std::vector<Dcv>* topic_rows_out) {
  PS2_RETURN_NOT_OK(options.Validate());
  Cluster* cluster = ctx->cluster();
  const uint32_t k_topics = options.num_topics;

  // Word-topic counts: K co-located topic rows over the vocabulary; topic
  // totals: one small dense DCV.
  PS2_ASSIGN_OR_RETURN(
      std::vector<Dcv> topic_rows,
      ctx->DenseMatrix(options.vocab_size, k_topics, 0.0, 0,
                       "lda.word_topic"));
  PS2_ASSIGN_OR_RETURN(Dcv topic_totals,
                       ctx->Dense(k_topics, 2, 1, 0, "lda.topic_totals"));

  const size_t num_partitions = docs.num_partitions();
  std::vector<LdaPartitionState> states(num_partitions);

  TrainReport report;
  report.system = "PS2-LDA";
  if (options.hotspot.enabled) {
    PS2_RETURN_NOT_OK(ctx->master()->hotspot()->Enable(options.hotspot));
  }
  const SimTime t0 = cluster->clock().Now();

  // Initialization: random assignments, push initial counts (sparse,
  // compressed).
  docs.ForeachPartition([&](TaskContext& task,
                            const std::vector<Document>& rows) {
    LdaPartitionState& state = states[task.task_id];
    Rng rng = task.rng.Split(0x1DA0);
    state.Initialize(rows, options, &rng);
    task.AddWorkerOps(state.total_tokens() * 4);
    // Both count pushes overlap into one round through the async client.
    DcvBatch init = ctx->Batch();
    init.PushSparse(topic_rows, state.InitialTopicCounts(options),
                    /*compress_counts=*/true);
    init.Push(topic_totals, state.InitialTopicTotals(options));
    PS2_CHECK_OK(init.Submit().Wait());
  });

  // One Gibbs sweep of a partition against pulled counts; the sweep's delta
  // pushes are the task's last ops. `clock` (when non-null) is the
  // consistency controller of an SSP/ASP run: the pull passes the staleness
  // gate first and the clock advance rides the push round.
  auto run_sweep = [&](TaskContext& task, int global_iter,
                       ConsistencyController* clock) -> std::pair<double, uint64_t> {
    LdaPartitionState& state = states[task.task_id];
    if (state.local_vocab().empty()) {
      // Even a degenerate partition ticks its clock, or it would hold every
      // other worker's staleness gate back forever.
      if (clock != nullptr) PS2_CHECK_OK(clock->AdvanceClock(task.task_id));
      return {0.0, 0};
    }

    // Sparse pull of the local vocabulary's counts for every topic
    // (varint-compressed) overlapped with the topic-totals pull:
    // one round for both through the async client.
    if (clock != nullptr) clock->GatePull(task.task_id);
    DcvBatch pull = ctx->Batch();
    size_t counts_slot = pull.PullSparse(topic_rows, state.local_vocab(),
                                         /*compress_counts=*/true);
    size_t totals_slot = pull.Pull(topic_totals);
    Result<DcvBatchResults> pulled = pull.Execute();
    PS2_CHECK(pulled.ok()) << pulled.status();

    Rng rng = task.rng.Split(0x1DA1 + global_iter);
    LdaPartitionState::SweepResult sweep =
        state.Sweep(options, &pulled->sparse_pulled[counts_slot],
                    pulled->pulled.row(totals_slot), &rng);
    task.AddWorkerOps(sweep.tokens * (4 * k_topics + 8));

    // Sparse compressed delta pushes (the last ops of the task),
    // again overlapped into a single round.
    DcvBatch push = ctx->Batch();
    push.PushSparse(topic_rows, std::move(sweep.topic_deltas),
                    /*compress_counts=*/true);
    push.Push(topic_totals, std::move(sweep.topic_total_deltas));
    DcvBatch::Future push_future = push.Submit();
    PsFuture<Ack> clock_future;
    if (clock != nullptr) clock_future = clock->AdvanceClockAsync(task.task_id);
    PS2_CHECK_OK(push_future.Wait());
    if (clock_future.valid()) PS2_CHECK_OK(clock_future.Wait());
    return {sweep.loglik_sum, sweep.tokens};
  };

  // Closes one stage: aggregate partials, refresh hot rows, record a point.
  auto finish_stage = [&](const std::vector<std::pair<double, uint64_t>>&
                              partials,
                          int point_iteration) -> Status {
    double loglik = 0;
    uint64_t tokens = 0;
    for (const auto& [l, c] : partials) {
      loglik += l;
      tokens += c;
    }
    // Coordinator-side, after the sweep's pushes: hot word rows (frequent
    // words) refresh against this iteration's counts.
    if (options.hotspot.enabled) {
      PS2_RETURN_NOT_OK(ctx->master()->hotspot()->Tick());
    }

    if (tokens == 0) return Status::OK();
    TrainPoint point;
    point.iteration = point_iteration;
    point.time = cluster->clock().Now() - t0;
    point.loss = -loglik / static_cast<double>(tokens);
    report.curve.push_back(point);
    report.final_loss = point.loss;
    return Status::OK();
  };

  if (options.consistency.bsp()) {
    // The paper's flow: one barrier per sweep (bit-identical to the
    // pre-controller trainer).
    for (int iter = 0; iter < options.iterations; ++iter) {
      std::vector<std::pair<double, uint64_t>> partials =
          docs.MapPartitionsCollect<std::pair<double, uint64_t>>(
              [&](TaskContext& task, const std::vector<Document>& rows)
                  -> std::pair<double, uint64_t> {
                (void)rows;  // documents live in the persistent Gibbs state
                return run_sweep(task, iter, nullptr);
              });
      PS2_RETURN_NOT_OK(finish_stage(partials, iter));
    }
  } else {
    // SSP/ASP (consistency/, DESIGN.md §11): a window of min(slack + 1,
    // remaining) sweeps per stage. A worker's pull sees counts at most
    // `slack` sweeps stale; the window bound keeps the gate from tripping
    // mid-stage, so the trace stays deterministic.
    const ConsistencyPolicy& policy = options.consistency;
    ConsistencyController controller(ctx->client(),
                                     static_cast<int>(num_partitions), policy);
    PS2_RETURN_NOT_OK(controller.Register());
    int done = 0;
    for (int round = 0; done < options.iterations; ++round) {
      const int window = policy.StepsPerStage(options.iterations - done);
      const int stage_base = done;
      std::vector<std::pair<double, uint64_t>> partials =
          docs.MapPartitionsCollect<std::pair<double, uint64_t>>(
              [&](TaskContext& task, const std::vector<Document>& rows)
                  -> std::pair<double, uint64_t> {
                (void)rows;
                double loglik = 0;
                uint64_t tokens = 0;
                for (int step = 0; step < window; ++step) {
                  auto [l, c] =
                      run_sweep(task, stage_base + step, &controller);
                  loglik += l;
                  tokens += c;
                }
                return {loglik, tokens};
              });
      done += window;
      PS2_RETURN_NOT_OK(finish_stage(partials, round));
    }
  }
  report.total_time = cluster->clock().Now() - t0;
  if (topic_rows_out != nullptr) *topic_rows_out = std::move(topic_rows);
  return report;
}

}  // namespace ps2
