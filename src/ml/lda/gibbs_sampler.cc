#include "ml/lda/gibbs_sampler.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/logging.h"

namespace ps2 {

void LdaPartitionState::Initialize(const std::vector<Document>& docs,
                                   const LdaOptions& options, Rng* rng) {
  docs_ = docs;
  const uint32_t k_topics = options.num_topics;
  z_.resize(docs_.size());
  doc_topic_.assign(docs_.size(), std::vector<uint32_t>(k_topics, 0));

  // Local vocabulary (sorted unique word ids).
  local_vocab_.clear();
  for (const Document& doc : docs_) {
    for (uint32_t w : doc.tokens) local_vocab_.push_back(w);
  }
  std::sort(local_vocab_.begin(), local_vocab_.end());
  local_vocab_.erase(std::unique(local_vocab_.begin(), local_vocab_.end()),
                     local_vocab_.end());

  total_tokens_ = 0;
  token_word_local_.clear();
  for (size_t d = 0; d < docs_.size(); ++d) {
    z_[d].resize(docs_[d].tokens.size());
    for (size_t t = 0; t < docs_[d].tokens.size(); ++t) {
      uint32_t topic = static_cast<uint32_t>(rng->NextUint64(k_topics));
      z_[d][t] = topic;
      doc_topic_[d][topic] += 1;
      token_word_local_.push_back(
          static_cast<uint32_t>(LocalWordIndex(docs_[d].tokens[t])));
      ++total_tokens_;
    }
  }
}

size_t LdaPartitionState::LocalWordIndex(uint64_t word) const {
  auto it = std::lower_bound(local_vocab_.begin(), local_vocab_.end(), word);
  PS2_CHECK(it != local_vocab_.end() && *it == word);
  return static_cast<size_t>(it - local_vocab_.begin());
}

std::vector<SparseVector> LdaPartitionState::InitialTopicCounts(
    const LdaOptions& options) const {
  const uint32_t k_topics = options.num_topics;
  std::vector<std::map<uint32_t, double>> counts(k_topics);
  size_t flat = 0;
  for (size_t d = 0; d < docs_.size(); ++d) {
    for (size_t t = 0; t < docs_[d].tokens.size(); ++t, ++flat) {
      counts[z_[d][t]][token_word_local_[flat]] += 1.0;
    }
  }
  std::vector<SparseVector> out;
  out.reserve(k_topics);
  for (uint32_t k = 0; k < k_topics; ++k) {
    std::vector<uint64_t> idx;
    std::vector<double> val;
    for (const auto& [j, v] : counts[k]) {
      idx.push_back(local_vocab_[j]);
      val.push_back(v);
    }
    out.emplace_back(std::move(idx), std::move(val));
  }
  return out;
}

std::vector<double> LdaPartitionState::InitialTopicTotals(
    const LdaOptions& options) const {
  std::vector<double> totals(options.num_topics, 0.0);
  for (size_t d = 0; d < docs_.size(); ++d) {
    for (uint32_t t : z_[d]) totals[t] += 1.0;
  }
  return totals;
}

LdaPartitionState::SweepResult LdaPartitionState::Sweep(
    const LdaOptions& options, RowBlock* nwt_local, double* nt, Rng* rng,
    size_t doc_begin, size_t doc_end) {
  const uint32_t k_topics = options.num_topics;
  const double alpha = options.alpha;
  const double beta = options.beta;
  const double v_beta = options.vocab_size * beta;
  doc_end = std::min(doc_end, docs_.size());

  SweepResult result;
  result.topic_total_deltas.assign(k_topics, 0.0);
  // Deltas are sparse relative to the vocabulary; maps keep the memory
  // footprint proportional to the tokens actually resampled.
  std::vector<std::map<uint32_t, double>> delta(k_topics);
  std::vector<double> weights(k_topics);

  // Flat token offset of doc_begin.
  size_t flat = 0;
  for (size_t d = 0; d < doc_begin; ++d) flat += docs_[d].tokens.size();
  for (size_t d = doc_begin; d < doc_end; ++d) {
    std::vector<uint32_t>& nd = doc_topic_[d];
    const double doc_len = static_cast<double>(docs_[d].tokens.size());
    for (size_t t = 0; t < docs_[d].tokens.size(); ++t, ++flat) {
      const uint32_t local_word = token_word_local_[flat];
      const uint32_t old_topic = z_[d][t];

      // Remove the token from all counts (clamping guards against transient
      // negatives caused by stale counts from concurrent workers).
      nd[old_topic] -= 1;
      double* old_row = nwt_local->row(old_topic);
      old_row[local_word] = std::max(0.0, old_row[local_word] - 1.0);
      nt[old_topic] = std::max(0.0, nt[old_topic] - 1.0);
      delta[old_topic][local_word] -= 1.0;
      result.topic_total_deltas[old_topic] -= 1.0;

      // Sampling weights: (N_dk + a) (N_wk + b) / (N_k + V b).
      double total = 0.0;
      for (uint32_t k = 0; k < k_topics; ++k) {
        double wgt = (nd[k] + alpha) * (nwt_local->row(k)[local_word] + beta) /
                     (nt[k] + v_beta);
        weights[k] = wgt;
        total += wgt;
      }
      double u = rng->NextDouble() * total;
      uint32_t new_topic = k_topics - 1;
      double acc = 0.0;
      for (uint32_t k = 0; k < k_topics; ++k) {
        acc += weights[k];
        if (u <= acc) {
          new_topic = k;
          break;
        }
      }

      // Token log-likelihood under the predictive distribution.
      result.loglik_sum +=
          std::log(total / (doc_len - 1.0 + k_topics * alpha));

      nd[new_topic] += 1;
      nwt_local->row(new_topic)[local_word] += 1.0;
      nt[new_topic] += 1.0;
      delta[new_topic][local_word] += 1.0;
      result.topic_total_deltas[new_topic] += 1.0;
      z_[d][t] = new_topic;
      ++result.tokens;
    }
  }

  result.topic_deltas.reserve(k_topics);
  for (uint32_t k = 0; k < k_topics; ++k) {
    std::vector<uint64_t> idx;
    std::vector<double> val;
    for (const auto& [j, v] : delta[k]) {
      if (v != 0.0) {
        idx.push_back(local_vocab_[j]);
        val.push_back(v);
      }
    }
    result.topic_deltas.emplace_back(std::move(idx), std::move(val));
  }
  return result;
}

std::vector<size_t> LdaPartitionState::DocRangeLocalWords(
    size_t doc_begin, size_t doc_end) const {
  doc_end = std::min(doc_end, docs_.size());
  size_t flat = 0;
  for (size_t d = 0; d < doc_begin; ++d) flat += docs_[d].tokens.size();
  std::vector<size_t> words;
  for (size_t d = doc_begin; d < doc_end; ++d) {
    for (size_t t = 0; t < docs_[d].tokens.size(); ++t, ++flat) {
      words.push_back(token_word_local_[flat]);
    }
  }
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
  return words;
}

}  // namespace ps2
