#include "serving/frontend.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace ps2 {

namespace {

/// The demand_ key of `row`: (matrix, row) packed into 64 bits.
uint64_t DemandKey(RowRef row) {
  return static_cast<uint64_t>(static_cast<uint32_t>(row.matrix_id)) << 32 |
         row.row;
}

}  // namespace

ServingFrontend::ServingFrontend(PsMaster* master, PsClient* client,
                                 ServingFrontendOptions options)
    : master_(master), client_(client), options_(options) {
  PS2_CHECK(master != nullptr);
  PS2_CHECK(client != nullptr);
}

Status ServingFrontend::PinCurrentEpoch() {
  const uint64_t epoch = master_->serving_snapshots()->epoch();
  if (epoch == 0) {
    return Status::FailedPrecondition("no serving snapshot published yet");
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Concurrent batches may pin in any order; the pin only moves forward.
  pinned_epoch_ = std::max(pinned_epoch_, epoch);
  return Status::OK();
}

uint64_t ServingFrontend::pinned_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pinned_epoch_;
}

bool ServingFrontend::IsEpochMiss(const Status& status) {
  return status.IsFailedPrecondition() &&
         status.message().find("serving snapshot epoch") != std::string::npos;
}

namespace {

/// ServeBatch's per-thread scratch. Every buffer keeps its capacity from
/// batch to batch, so coalescing a batch allocates nothing once a thread has
/// served one of its size; only the returned vectors and the servers'
/// responses are new. Per thread, not per frontend: concurrent batches each
/// have their own.
struct BatchScratch {
  std::vector<uint32_t> order;
  std::vector<PsClient::ServingRead> reads;
  /// Reads beyond the current batch's count, kept with their index lists'
  /// capacity.
  std::vector<PsClient::ServingRead> parked;
  std::vector<size_t> read_of_request;
  RowBlock block;

  /// Sizes `reads` to `n`, parking surplus reads instead of freeing them.
  void ResizeReads(size_t n) {
    while (reads.size() > n) {
      parked.push_back(std::move(reads.back()));
      reads.pop_back();
    }
    while (reads.size() < n && !parked.empty()) {
      reads.push_back(std::move(parked.back()));
      parked.pop_back();
    }
    reads.resize(n);
  }
};

}  // namespace

Result<std::vector<std::vector<double>>> ServingFrontend::ServeBatch(
    const std::vector<ServingRequest>& batch) {
  if (batch.empty()) return std::vector<std::vector<double>>{};
  thread_local BatchScratch scratch;

  // ---- Plan: one read per distinct row (coalesced) or per request. ----
  // Requests sorted by (matrix, row), ties in batch order: each run of equal
  // rows is one distinct row, and the runs come in the order a std::map of
  // rows would give — so the read order, and with it the wire bytes, does
  // not depend on batch order.
  std::vector<uint32_t>& order = scratch.order;
  order.resize(batch.size());
  std::iota(order.begin(), order.end(), 0u);
  auto row_key = [&](uint32_t i) {
    return std::make_pair(batch[i].row.matrix_id, batch[i].row.row);
  };
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return std::make_pair(row_key(a), a) < std::make_pair(row_key(b), b);
  });
  // End of the run of requests for the row of order[lo].
  auto run_end = [&](size_t lo) {
    size_t hi = lo + 1;
    while (hi < order.size() && row_key(order[hi]) == row_key(order[lo])) ++hi;
    return hi;
  };
  std::vector<PsClient::ServingRead>& reads = scratch.reads;
  std::vector<size_t>& read_of_request = scratch.read_of_request;
  read_of_request.resize(batch.size());
  if (options_.coalesce) {
    size_t n_rows = 0;
    for (size_t lo = 0; lo < order.size(); lo = run_end(lo)) ++n_rows;
    scratch.ResizeReads(n_rows);
    // Union the index sets per row; a full-row request (empty indices)
    // absorbs every indexed one.
    size_t r = 0;
    for (size_t lo = 0, hi; lo < order.size(); lo = hi, ++r) {
      hi = run_end(lo);
      PsClient::ServingRead& read = reads[r];
      read.row = batch[order[lo]].row;
      read.indices.clear();
      bool full = false;
      for (size_t k = lo; k < hi; ++k) {
        const std::vector<uint64_t>& idx = batch[order[k]].indices;
        full = full || idx.empty();
        if (!full) {
          read.indices.insert(read.indices.end(), idx.begin(), idx.end());
        }
        read_of_request[order[k]] = r;
      }
      if (full) {
        read.indices.clear();
      } else {
        std::sort(read.indices.begin(), read.indices.end());
        read.indices.erase(
            std::unique(read.indices.begin(), read.indices.end()),
            read.indices.end());
      }
    }
  } else {
    scratch.ResizeReads(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      read_of_request[i] = i;
      reads[i].row = batch[i].row;
      reads[i].indices.assign(batch[i].indices.begin(),
                              batch[i].indices.end());
    }
  }
  uint64_t epoch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.requests += batch.size();
    stats_.batches += 1;
    stats_.raw_reads += batch.size();
    stats_.coalesced_reads += reads.size();
    // One demand update per distinct row: the sorted runs again.
    for (size_t lo = 0, hi; lo < order.size(); lo = hi) {
      hi = run_end(lo);
      demand_[DemandKey(batch[order[lo]].row)] += hi - lo;
    }
    epoch = pinned_epoch_;
  }

  // ---- Execute, repinning when the pinned epoch is no longer served. ----
  if (epoch == 0) {
    PS2_RETURN_NOT_OK(PinCurrentEpoch());
    epoch = pinned_epoch();
  }
  Result<RowBlock> values =
      client_->ServingPullAsync(epoch, reads, std::move(scratch.block)).Get();
  for (int attempt = 0;
       !values.ok() && IsEpochMiss(values.status()) &&
       attempt < options_.max_epoch_retries;
       ++attempt) {
    const uint64_t current = master_->serving_snapshots()->epoch();
    if (current == epoch) break;  // nothing newer to repin to — surface it
    epoch = current;
    {
      std::lock_guard<std::mutex> lock(mu_);
      pinned_epoch_ = std::max(pinned_epoch_, current);
      stats_.epoch_repins += 1;
    }
    values = client_->ServingPullAsync(epoch, reads, RowBlock{}).Get();
  }
  PS2_RETURN_NOT_OK(values.status());
  const RowBlock& block = *values;

  // ---- Scatter the per-read values back per request. ----
  std::vector<std::vector<double>> out(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const size_t r = read_of_request[i];
    const PsClient::ServingRead& read = reads[r];
    const double* got = block.row(r);
    const ServingRequest& req = batch[i];
    if (req.indices.empty()) {
      // A full-row request forces its read to be full-row, so `got` is the
      // whole row.
      out[i].assign(got, got + block.width(r));
    } else if (read.indices.empty()) {
      // The read was widened to the full row by another request; pick the
      // request's columns straight out of it.
      out[i].resize(req.indices.size());
      for (size_t k = 0; k < req.indices.size(); ++k) {
        out[i][k] = got[req.indices[k]];
      }
    } else {
      // Both indexed: the request's indices are a subset of the read's
      // sorted union. Most reads serve one request, whose sorted keys are
      // the union itself, so one forward walk finds them all; a key below
      // the walk's position restarts it.
      const std::vector<uint64_t>& keys = read.indices;
      out[i].resize(req.indices.size());
      size_t pos = 0;
      for (size_t k = 0; k < req.indices.size(); ++k) {
        const uint64_t idx = req.indices[k];
        if (pos < keys.size() && keys[pos] > idx) pos = 0;
        while (pos < keys.size() && keys[pos] < idx) ++pos;
        PS2_CHECK(pos < keys.size() && keys[pos] == idx);
        out[i][k] = got[pos];
      }
    }
  }
  scratch.block = std::move(*values);
  return out;
}

ServingFrontend::Stats ServingFrontend::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

uint64_t ServingFrontend::DemandCount(RowRef row) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = demand_.find(DemandKey(row));
  return it == demand_.end() ? 0 : it->second;
}

}  // namespace ps2
