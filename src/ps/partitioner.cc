#include "ps/partitioner.h"

#include <algorithm>

#include "common/logging.h"

namespace ps2 {

namespace {

Status ValidateShape(uint64_t dim, int num_partitions, uint64_t alignment) {
  if (dim == 0) return Status::InvalidArgument("dim must be > 0");
  if (num_partitions <= 0) {
    return Status::InvalidArgument("num_partitions must be > 0");
  }
  if (alignment == 0) return Status::InvalidArgument("alignment must be > 0");
  if (dim % alignment != 0) {
    return Status::InvalidArgument(
        "dim must be a multiple of alignment so no unit is split");
  }
  return Status::OK();
}

}  // namespace

std::vector<int> ColumnPartitioner::BlockAssignment(
    const std::vector<int>& active, int num_partitions, int rotation) {
  PS2_CHECK(!active.empty());
  PS2_CHECK_GT(num_partitions, 0);
  const int blocks =
      std::min<int>(static_cast<int>(active.size()), num_partitions);
  const int rot = ((rotation % blocks) + blocks) % blocks;
  std::vector<int> assignment(num_partitions);
  for (int p = 0; p < num_partitions; ++p) {
    // floor(p * B / P): contiguous blocks of partitions per active server.
    // When B == P this is p, i.e. the classic (p + rotation) % n placement.
    int block = static_cast<int>(static_cast<int64_t>(p) * blocks /
                                 num_partitions);
    assignment[p] = active[(block + rot) % blocks];
  }
  return assignment;
}

Result<ColumnPartitioner> ColumnPartitioner::Make(uint64_t dim,
                                                  int num_servers,
                                                  uint64_t alignment,
                                                  int rotation) {
  PS2_RETURN_NOT_OK(ValidateShape(dim, num_servers, alignment));
  ColumnPartitioner p;
  p.dim_ = dim;
  p.num_partitions_ = num_servers;
  p.alignment_ = alignment;
  p.rotation_ = ((rotation % num_servers) + num_servers) % num_servers;
  p.units_ = dim / alignment;
  p.units_per_part_ = (p.units_ + num_servers - 1) / num_servers;
  std::vector<int> identity(num_servers);
  for (int i = 0; i < num_servers; ++i) identity[i] = i;
  p.assignment_ = BlockAssignment(identity, num_servers, p.rotation_);
  p.first_server_ = p.assignment_[0];
  return p;
}

Result<ColumnPartitioner> ColumnPartitioner::MakeElastic(
    uint64_t dim, const std::vector<int>& active, int num_partitions,
    uint64_t alignment, int rotation) {
  PS2_RETURN_NOT_OK(ValidateShape(dim, num_partitions, alignment));
  if (active.empty()) {
    return Status::InvalidArgument("active server list must be non-empty");
  }
  if (!std::is_sorted(active.begin(), active.end())) {
    return Status::InvalidArgument("active server list must be sorted");
  }
  ColumnPartitioner p;
  p.dim_ = dim;
  p.num_partitions_ = num_partitions;
  p.alignment_ = alignment;
  p.rotation_ =
      ((rotation % num_partitions) + num_partitions) % num_partitions;
  p.units_ = dim / alignment;
  p.units_per_part_ = (p.units_ + num_partitions - 1) / num_partitions;
  p.assignment_ = BlockAssignment(active, num_partitions, p.rotation_);
  p.first_server_ = p.assignment_[0];
  return p;
}

Result<ColumnPartitioner> ColumnPartitioner::WithAssignment(
    std::vector<int> assignment) const {
  if (static_cast<int>(assignment.size()) != num_partitions_) {
    return Status::InvalidArgument("assignment size != num_partitions");
  }
  for (int s : assignment) {
    if (s < 0) return Status::InvalidArgument("assignment has negative server");
  }
  // Each server's partitions must be one contiguous run, otherwise its shard
  // span would overlap another server's columns.
  for (int p = 1; p < num_partitions_; ++p) {
    if (assignment[p] == assignment[p - 1]) continue;
    for (int q = 0; q < p - 1; ++q) {
      if (assignment[q] == assignment[p]) {
        return Status::InvalidArgument(
            "assignment is not contiguous per server");
      }
    }
  }
  ColumnPartitioner out = *this;
  out.assignment_ = std::move(assignment);
  out.first_server_ = out.assignment_[0];
  return out;
}

uint64_t ColumnPartitioner::RangeBegin(int partition) const {
  PS2_CHECK_GE(partition, 0);
  PS2_CHECK_LT(partition, num_partitions_);
  uint64_t unit = std::min(units_, units_per_part_ * partition);
  return unit * alignment_;
}

uint64_t ColumnPartitioner::RangeEnd(int partition) const {
  PS2_CHECK_GE(partition, 0);
  PS2_CHECK_LT(partition, num_partitions_);
  uint64_t unit = std::min(units_, units_per_part_ * (partition + 1));
  return unit * alignment_;
}

int ColumnPartitioner::ServerOfPartition(int partition) const {
  PS2_CHECK_GE(partition, 0);
  PS2_CHECK_LT(partition, num_partitions_);
  return assignment_[partition];
}

int ColumnPartitioner::PartitionOfColumn(uint64_t col) const {
  PS2_CHECK_LT(col, dim_);
  uint64_t unit = col / alignment_;
  int partition = static_cast<int>(unit / units_per_part_);
  return std::min(partition, num_partitions_ - 1);
}

bool ColumnPartitioner::ServerSpan(int server, uint64_t* begin,
                                   uint64_t* end) const {
  int first = -1, last = -1;
  for (int p = 0; p < num_partitions_; ++p) {
    if (assignment_[p] != server) continue;
    if (first < 0) first = p;
    last = p;
  }
  if (first < 0) return false;
  *begin = RangeBegin(first);
  *end = RangeEnd(last);
  return true;
}

bool ColumnPartitioner::CoLocatedWith(const ColumnPartitioner& other) const {
  // Same boundaries and same owner per partition <=> every column lands on
  // the same server. (rotation_ is deliberately not compared: two
  // partitioners with different rotations but identical assignments place
  // columns identically.)
  return dim_ == other.dim_ && num_partitions_ == other.num_partitions_ &&
         alignment_ == other.alignment_ && assignment_ == other.assignment_;
}

}  // namespace ps2
