#include "linalg/sparse_vector.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "common/logging.h"

namespace ps2 {

namespace {
uint64_t VarintSize(uint64_t v) {
  uint64_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}
}  // namespace

SparseVector::SparseVector(std::vector<uint64_t> indices,
                           std::vector<double> values) {
  PS2_CHECK_EQ(indices.size(), values.size());
  std::vector<size_t> order(indices.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return indices[a] < indices[b]; });
  indices_.reserve(indices.size());
  values_.reserve(values.size());
  for (size_t k : order) {
    if (!indices_.empty() && indices_.back() == indices[k]) {
      values_.back() += values[k];
    } else {
      indices_.push_back(indices[k]);
      values_.push_back(values[k]);
    }
  }
}

SparseVector SparseVector::FromSorted(std::vector<uint64_t> indices,
                                      std::vector<double> values) {
  PS2_CHECK_EQ(indices.size(), values.size());
  PS2_DCHECK(std::adjacent_find(indices.begin(), indices.end(),
                                std::greater_equal<uint64_t>()) ==
             indices.end())
      << "FromSorted indices must be strictly increasing";
  SparseVector out;
  out.indices_ = std::move(indices);
  out.values_ = std::move(values);
  return out;
}

void SparseVector::PushBack(uint64_t index, double value) {
  PS2_CHECK(indices_.empty() || index > indices_.back())
      << "PushBack indices must be strictly increasing";
  indices_.push_back(index);
  values_.push_back(value);
}

double SparseVector::Get(uint64_t i) const {
  auto it = std::lower_bound(indices_.begin(), indices_.end(), i);
  if (it == indices_.end() || *it != i) return 0.0;
  return values_[static_cast<size_t>(it - indices_.begin())];
}

double SparseVector::Dot(const std::vector<double>& dense) const {
  double s = 0.0;
  for (size_t k = 0; k < indices_.size(); ++k) {
    if (indices_[k] < dense.size()) s += values_[k] * dense[indices_[k]];
  }
  return s;
}

void SparseVector::AxpyInto(std::vector<double>* dense, double alpha) const {
  for (size_t k = 0; k < indices_.size(); ++k) {
    if (indices_[k] < dense->size()) {
      (*dense)[indices_[k]] += alpha * values_[k];
    }
  }
}

double SparseVector::Norm2() const {
  double s = 0.0;
  for (double v : values_) s += v * v;
  return std::sqrt(s);
}

void SparseVector::AddInPlace(const SparseVector& other) {
  std::vector<uint64_t> idx;
  std::vector<double> val;
  idx.reserve(indices_.size() + other.indices_.size());
  val.reserve(idx.capacity());
  size_t a = 0, b = 0;
  while (a < indices_.size() || b < other.indices_.size()) {
    if (b >= other.indices_.size() ||
        (a < indices_.size() && indices_[a] < other.indices_[b])) {
      idx.push_back(indices_[a]);
      val.push_back(values_[a]);
      ++a;
    } else if (a >= indices_.size() || other.indices_[b] < indices_[a]) {
      idx.push_back(other.indices_[b]);
      val.push_back(other.values_[b]);
      ++b;
    } else {
      idx.push_back(indices_[a]);
      val.push_back(values_[a] + other.values_[b]);
      ++a;
      ++b;
    }
  }
  indices_ = std::move(idx);
  values_ = std::move(val);
}

void SparseVector::ScaleInPlace(double alpha) {
  for (double& v : values_) v *= alpha;
}

void SparseVector::Serialize(BufferWriter* writer) const {
  writer->WriteVarint(indices_.size());
  writer->WriteDeltaKeys(indices_.data(), indices_.size());
  writer->WriteF64Span(values_.data(), values_.size());
}

Result<SparseVector> SparseVector::Deserialize(BufferReader* reader) {
  // Every entry needs at least one delta byte and eight value bytes; reject
  // length claims the buffer cannot possibly back before allocating.
  PS2_ASSIGN_OR_RETURN(uint64_t n, reader->ReadCount(1 + sizeof(double)));
  SparseVector out;
  out.indices_.resize(n);
  PS2_RETURN_NOT_OK(reader->ReadDeltaKeys(out.indices_.data(), n));
  out.values_.resize(n);
  PS2_RETURN_NOT_OK(reader->ReadF64Into(out.values_.data(), n));
  return out;
}

uint64_t SparseVector::SerializedBytes() const {
  uint64_t bytes = VarintSize(indices_.size());
  uint64_t prev = 0;
  for (uint64_t idx : indices_) {
    bytes += VarintSize(idx - prev);
    prev = idx;
  }
  bytes += 8 * values_.size();
  return bytes;
}

}  // namespace ps2
