#pragma once

// Column-range partitioning of DCV matrices across parameter servers.
//
// A matrix of `num_rows` rows over logical dimension `dim` is split into
// `num_partitions` contiguous column ranges; each owning server stores *all
// rows* of its ranges. This is the paper's column-partition strategy (§4.3):
// row access ops parallelize across servers, and column access ops between
// rows of the same matrix touch no other server.
//
// Since PR 9 (elastic membership, DESIGN.md §12) the partition *boundaries*
// are fixed at matrix creation and never move; only the partition→server
// `assignment` changes when servers join, leave, or the rebalancer sheds a
// hot range. Keeping boundaries immutable is what makes in-flight re-routing
// sound: a request built for partition p is never re-split, it is only
// re-addressed to p's new owner.
//
// `alignment` forces range boundaries onto multiples of a unit (e.g. GBDT
// keeps each feature's histogram bins on one server by aligning to the
// histogram size).
//
// `rotation` shifts which server owns which range. Matrices created
// independently get different rotations, so equal-range partitions still
// land on *different* servers — exactly the "inefficient writing" of paper
// Fig. 4. `derive` inherits the base matrix's rotation, restoring
// co-location.

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace ps2 {

/// \brief Maps columns of a distributed matrix to servers.
class ColumnPartitioner {
 public:
  ColumnPartitioner() = default;

  /// Classic static layout: one partition per server, owner (p+rotation)%n.
  /// Identical boundaries and placement to the pre-elastic partitioner.
  static Result<ColumnPartitioner> Make(uint64_t dim, int num_servers,
                                        uint64_t alignment = 1,
                                        int rotation = 0);

  /// Elastic layout: `num_partitions` fixed ranges block-assigned to the
  /// sorted `active` server list. With B = min(|active|, num_partitions),
  /// partition p goes to active[(p*B/num_partitions + rotation) % B] —
  /// contiguous runs of partitions per server, and when |active| ==
  /// num_partitions this reduces exactly to Make()'s (p+rotation)%n.
  static Result<ColumnPartitioner> MakeElastic(uint64_t dim,
                                               const std::vector<int>& active,
                                               int num_partitions,
                                               uint64_t alignment = 1,
                                               int rotation = 0);

  /// The block assignment MakeElastic computes, as a standalone helper so
  /// the membership planner can diff old vs new without building a full
  /// partitioner. `active` must be sorted and non-empty.
  static std::vector<int> BlockAssignment(const std::vector<int>& active,
                                          int num_partitions, int rotation);

  /// Copy of this partitioner with an explicit partition→server assignment
  /// (the rebalancer's boundary nudges). Each server's partitions must form
  /// one contiguous run so shards stay single-range.
  Result<ColumnPartitioner> WithAssignment(std::vector<int> assignment) const;

  uint64_t dim() const { return dim_; }
  int num_partitions() const { return num_partitions_; }
  uint64_t alignment() const { return alignment_; }
  int rotation() const { return rotation_; }
  const std::vector<int>& assignment() const { return assignment_; }
  /// ServerOfPartition(0), kept inline: the owner of a single-partition
  /// matrix is routed without reading the assignment vector.
  int first_server() const { return first_server_; }

  /// Half-open column range [RangeBegin(p), RangeEnd(p)) of partition p.
  /// Partitions are indexed 0..num_partitions-1 in column order.
  uint64_t RangeBegin(int partition) const;
  uint64_t RangeEnd(int partition) const;
  uint64_t RangeWidth(int partition) const {
    return RangeEnd(partition) - RangeBegin(partition);
  }

  /// Server that stores partition p.
  int ServerOfPartition(int partition) const;

  /// Partition containing column `col`.
  int PartitionOfColumn(uint64_t col) const;

  /// Server storing column `col`.
  int ServerOfColumn(uint64_t col) const {
    return ServerOfPartition(PartitionOfColumn(col));
  }

  /// Union column span [begin, end) of the partitions `server` owns.
  /// Returns false if the server owns nothing. The contiguity invariant
  /// guarantees the span contains exactly the owned partitions.
  bool ServerSpan(int server, uint64_t* begin, uint64_t* end) const;

  /// True if `other` places every column on the same server as this.
  bool CoLocatedWith(const ColumnPartitioner& other) const;

 private:
  uint64_t dim_ = 0;
  int num_partitions_ = 1;
  int first_server_ = 0;           // assignment_[0]
  uint64_t alignment_ = 1;
  int rotation_ = 0;
  uint64_t units_ = 0;             // ceil(dim / alignment)
  uint64_t units_per_part_ = 0;    // ceil(units / num_partitions)
  std::vector<int> assignment_;    // partition -> server id
};

}  // namespace ps2
