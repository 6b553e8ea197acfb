#pragma once

// Model snapshot publication for the online serving tier (DESIGN.md §10).
//
// Training mutates rows in place; serving needs repeatable reads. The
// ModelSnapshotManager — owned by PsMaster, driven by the trainer between
// stages — closes that gap with epoch-versioned snapshots: Publish() asks
// every server to freeze its current shard state under the next epoch
// (PsServer::PublishSnapshot — copy-on-publish of the kSnapshotChunk-double
// chunks written since the previous epoch, sharing for the rest; a row
// rewritten whole is copied as one buffer), after which kServingPull
// requests pinned to epoch N are bit-stable no matter how far epoch N+1
// training has progressed. Two retained epochs hold at most 3x the dense
// model bytes while shard bounds stay put (PsServer::SnapshotBytesHeld).
//
// Snapshots are process-local soft state: a crashed server loses them with
// the rest of its memory, and recovery (PsMaster::RecoverServerInternal)
// calls OnServerRecovered to republish the current epoch from the restored
// checkpoint image. Readers pinned to an epoch the restored server no longer
// has are told so (FailedPrecondition) and repin via the ServingFrontend.

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "ps/ps_types.h"

namespace ps2 {

class PsMaster;

/// \brief What one Publish() round actually moved.
struct SnapshotPublishStats {
  uint64_t epoch = 0;        ///< the epoch this publish installed
  uint64_t rows_total = 0;   ///< rows across all shards on all servers
  uint64_t rows_copied = 0;  ///< rows touched since the previous epoch
  uint64_t rows_reused = 0;  ///< rows shared whole with the previous epoch
  uint64_t bytes_copied = 0; ///< payload bytes of the copied chunks
};

/// \brief Master-side coordinator of serving snapshot epochs.
///
/// Thread-safe, but Publish is expected to run on the coordinator between
/// training stages (like CheckpointAll) — that is what makes "epoch N serves
/// while N+1 trains" a clean handoff rather than a race.
class ModelSnapshotManager {
 public:
  explicit ModelSnapshotManager(PsMaster* master);

  /// Freezes the current model state under a new epoch on every server and
  /// returns what it cost. The publish command is priced like any other
  /// coordinator->server exchange; the copy work is charged as one server
  /// op per copied double, so a publish costs what the writes since the
  /// last one touched, and a quiet model publishes almost for free.
  Result<SnapshotPublishStats> Publish();

  /// The latest published epoch; 0 means nothing has been published yet.
  uint64_t epoch() const;

  /// The metas of `rows` as placed when `epoch` was published, so a read
  /// pinned to `epoch` reaches the servers that hold it even after a later
  /// relocation. For an epoch no longer retained, the current metas (its
  /// servers then answer with the epoch-miss FailedPrecondition). NotFound
  /// for a matrix that did not exist at `epoch`.
  Result<MetaBatch> PlacementOf(uint64_t epoch,
                                const std::vector<RowRef>& rows) const;

  /// Called by PsMaster after a server crash + restore. The restarted
  /// process dropped its snapshots with the rest of its state, so without
  /// this hook every serving read against it fails until the next Publish.
  /// Republishes the current epoch from the restored shards (their contents
  /// are checkpoint-old, but epoch pinning only promises a *consistent*
  /// cut, and the next Publish catches serving back up). No-op while no
  /// epoch has been published.
  Status OnServerRecovered(int server_id);

 private:
  /// The placement each retained epoch was published under, oldest first.
  struct Placement {
    uint64_t epoch = 0;
    std::shared_ptr<const MetaTable> metas;
  };

  PsMaster* master_;
  mutable std::mutex mu_;
  uint64_t epoch_ = 0;
  std::vector<Placement> placements_;
};

}  // namespace ps2
