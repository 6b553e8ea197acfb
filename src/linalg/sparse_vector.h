#pragma once

// Sparse vector: sorted (index, value) pairs over a huge logical dimension.
// Training examples and sparse gradients use this representation; its
// serialized form (delta-varint indices + raw doubles) is what travels to
// the parameter servers, so "sparse communication" savings are measured from
// real encoded bytes.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/serde.h"

namespace ps2 {

/// \brief Immutable-ish sparse vector with sorted unique indices.
class SparseVector {
 public:
  SparseVector() = default;

  /// Takes parallel arrays; sorts by index and merges duplicates (summing).
  SparseVector(std::vector<uint64_t> indices, std::vector<double> values);

  /// Takes parallel arrays whose indices already strictly increase, as is
  /// (no sort, no merge).
  static SparseVector FromSorted(std::vector<uint64_t> indices,
                                 std::vector<double> values);

  size_t nnz() const { return indices_.size(); }
  const std::vector<uint64_t>& indices() const { return indices_; }
  const std::vector<double>& values() const { return values_; }

  /// Appends an entry with index strictly greater than the current last.
  void PushBack(uint64_t index, double value);

  /// Value at logical index `i` (binary search; 0 if absent).
  double Get(uint64_t i) const;

  /// Sparse-dense dot against `dense` (entries beyond dense.size() ignored).
  double Dot(const std::vector<double>& dense) const;

  /// dense[idx] += alpha * value for each entry within bounds.
  void AxpyInto(std::vector<double>* dense, double alpha) const;

  double Norm2() const;

  /// this += other (sparse-sparse merge).
  void AddInPlace(const SparseVector& other);
  void ScaleInPlace(double alpha);

  /// Wire encoding: nnz, delta-varint indices, raw doubles.
  void Serialize(BufferWriter* writer) const;
  static Result<SparseVector> Deserialize(BufferReader* reader);

  /// Serialized size without materializing the buffer (used in tests).
  uint64_t SerializedBytes() const;

  bool operator==(const SparseVector& other) const {
    return indices_ == other.indices_ && values_ == other.values_;
  }

 private:
  std::vector<uint64_t> indices_;
  std::vector<double> values_;
};

}  // namespace ps2
