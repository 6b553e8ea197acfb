#pragma once

// Serving frontend: request coalescing + epoch pinning (DESIGN.md §10).
//
// Concurrent clients of an online model ask for overlapping keys — Zipf
// popularity guarantees it. The ServingFrontend sits between the request
// stream and the PsClient and exploits that: requests in a batch that hit
// the same row are coalesced into ONE ServingRead whose index set is the
// deduplicated union (a full-row request absorbs every indexed one), so the
// key travels the wire once no matter how many requests wanted it. The
// whole batch then rides a single kServingPull fan-out (one request per
// server — PsClient::ServingPullAsync batches same-server entries), and the
// responses are scattered back per request. The bench pins the resulting
// net.bytes_wire drop vs the uncoalesced baseline.
//
// Reads are pinned to a published snapshot epoch (serving/snapshot.h), so
// every request in a batch — and every batch until a repin — observes one
// consistent model cut while training mutates the live rows. When the
// pinned epoch falls out of a server's retention window (training published
// past it, or a crash dropped it), the server answers FailedPrecondition
// and the frontend repins to the master's current epoch and retries —
// bounded, so a genuinely broken setup surfaces instead of spinning.
//
// Per-row demand counters record what the serving mix actually wants; the
// server side already feeds the hotspot sketches (HandleServingPull calls
// RecordPull), so hot serving rows become replication/cache candidates the
// same way hot training rows do.

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "ps/ps_client.h"
#include "serving/traffic_gen.h"

namespace ps2 {

/// \brief Frontend tuning knobs.
struct ServingFrontendOptions {
  /// Merge same-row requests of a batch into one deduplicated read. Off =
  /// every request travels alone (the bench's bytes baseline).
  bool coalesce = true;
  /// Repin + retry budget when the pinned epoch is no longer served.
  int max_epoch_retries = 3;
};

/// \brief Coalescing, epoch-pinned read path over PsClient::ServingPullAsync.
///
/// Thread-safe: batches may be served from concurrent threads (the
/// frontend test does); the exchange itself runs outside the
/// frontend lock. A batch is planned in per-thread scratch that keeps its
/// capacity, and read through PsClient::ServingPullAsync into a RowBlock
/// that thread reuses, so a steady-state batch allocates only the vectors
/// it returns and the servers' responses.
class ServingFrontend {
 public:
  ServingFrontend(PsMaster* master, PsClient* client,
                  ServingFrontendOptions options = {});

  /// Pins subsequent reads to the master's current published epoch. Fails
  /// with FailedPrecondition when nothing has been published yet.
  Status PinCurrentEpoch();

  uint64_t pinned_epoch() const;

  /// Serves one batch: coalesces, executes the pinned-epoch fan-out
  /// (repinning on epoch misses), and scatters values back — one vector per
  /// request, in request order (the whole row, or the request's indices).
  Result<std::vector<std::vector<double>>> ServeBatch(
      const std::vector<ServingRequest>& batch);

  /// \brief Counters for tests and the bench.
  struct Stats {
    uint64_t requests = 0;        ///< requests served
    uint64_t batches = 0;         ///< ServeBatch calls that did work
    uint64_t raw_reads = 0;       ///< reads before coalescing (== requests)
    uint64_t coalesced_reads = 0; ///< reads that actually went to the wire
    uint64_t epoch_repins = 0;    ///< pinned-epoch misses that re-resolved
  };
  Stats stats() const;

  /// How many requests have asked for `row` (any index subset) so far.
  uint64_t DemandCount(RowRef row) const;

 private:
  /// The server's "pinned epoch fell out of retention" signal
  /// (ps_server.cc HandleServingPull). Distinct from the keycache-miss
  /// FailedPrecondition, which PsClient consumes internally.
  static bool IsEpochMiss(const Status& status);

  PsMaster* master_;
  PsClient* client_;
  ServingFrontendOptions options_;

  mutable std::mutex mu_;
  uint64_t pinned_epoch_ = 0;
  Stats stats_;
  /// Requests per (matrix, row), keyed by the pair packed into 64 bits.
  std::unordered_map<uint64_t, uint64_t> demand_;
};

}  // namespace ps2
