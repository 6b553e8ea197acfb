#pragma once

// Zero-copy byte views for the RPC plane.
//
// The serde/message API passes payloads as views instead of copies: a
// Slice is a non-owning (pointer, size) view, the universal argument type
// for readers and Handle().
//
// Lifetime rule: a Slice never owns its bytes. A Slice taken from a
// buffer is valid only while that buffer is alive; APIs that retain bytes
// past the call own them as a std::vector<uint8_t> (moved out of a
// BufferWriter, never copied), APIs that only read during the call take a
// Slice. See DESIGN.md §9.

#include <cstdint>
#include <vector>

namespace ps2 {

/// \brief Non-owning view over a byte range.
class Slice {
 public:
  Slice() = default;
  Slice(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  // Implicit: any vector-based call site reads as a view without ceremony.
  Slice(const std::vector<uint8_t>& buf)  // NOLINT(runtime/explicit)
      : data_(buf.data()), size_(buf.size()) {}

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint8_t operator[](size_t i) const { return data_[i]; }

  /// Sub-view [pos, pos+n); clamped to the slice bounds.
  Slice subslice(size_t pos, size_t n) const {
    if (pos >= size_) return Slice();
    return Slice(data_ + pos, n < size_ - pos ? n : size_ - pos);
  }

  /// Explicit materialization, for a caller that needs owned bytes.
  std::vector<uint8_t> ToVector() const {
    return std::vector<uint8_t>(data_, data_ + size_);
  }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace ps2
