#pragma once

// Worker-local collapsed Gibbs machinery, shared by the PS2 trainer and all
// baselines (they differ only in how word-topic counts travel).

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "data/types.h"
#include "linalg/sparse_vector.h"
#include "ml/lda/lda_model.h"
#include "ps/ps_types.h"

namespace ps2 {

/// \brief Per-partition Gibbs state: documents, assignments, doc-topic
/// counts, and the partition's vocabulary.
class LdaPartitionState {
 public:
  /// Randomly assigns topics and accumulates local counts.
  void Initialize(const std::vector<Document>& docs, const LdaOptions& options,
                  Rng* rng);

  bool initialized() const { return !docs_.empty() || !z_.empty(); }

  /// Sorted unique word ids this partition touches.
  const std::vector<uint64_t>& local_vocab() const { return local_vocab_; }

  /// This partition's contribution to the global counts (for the initial
  /// push): one sparse vector per topic over `local_vocab`, plus N_t.
  std::vector<SparseVector> InitialTopicCounts(const LdaOptions& options) const;
  std::vector<double> InitialTopicTotals(const LdaOptions& options) const;

  uint64_t total_tokens() const { return total_tokens_; }

  /// \brief Outcome of one Gibbs sweep over the partition.
  struct SweepResult {
    double loglik_sum = 0;   ///< sum over tokens of log p(w | d)
    uint64_t tokens = 0;
    std::vector<SparseVector> topic_deltas;  ///< per topic, global word ids
    std::vector<double> topic_total_deltas;  ///< length K
  };

  /// Resamples the tokens of docs [doc_begin, doc_end) against the supplied
  /// (stale) global counts. `nwt_local->row(k)[j]` is N_{w,k} for local
  /// word j; `nt[k]` is N_k. Both are updated in place as sampling proceeds;
  /// the deltas to push are returned (with global word ids).
  SweepResult Sweep(const LdaOptions& options, RowBlock* nwt_local, double* nt,
                    Rng* rng, size_t doc_begin = 0,
                    size_t doc_end = static_cast<size_t>(-1));

  size_t num_docs() const { return docs_.size(); }

  /// Sorted unique PARTITION-LOCAL word indices used by a doc range (for
  /// minibatch pulls, e.g. the Glint baseline).
  std::vector<size_t> DocRangeLocalWords(size_t doc_begin,
                                         size_t doc_end) const;

 private:
  size_t LocalWordIndex(uint64_t word) const;

  std::vector<Document> docs_;
  std::vector<std::vector<uint32_t>> z_;        // per doc, per token topic
  std::vector<std::vector<uint32_t>> doc_topic_;  // per doc, K counts
  std::vector<uint64_t> local_vocab_;
  std::vector<uint32_t> token_word_local_;  // flattened local word index
  uint64_t total_tokens_ = 0;
};

}  // namespace ps2
