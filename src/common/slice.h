#pragma once

// Zero-copy byte buffers for the RPC plane.
//
// The serde/message API passes payloads as views instead of copies:
//
//   * Slice      — a non-owning (pointer, size) view, the universal argument
//                  type for readers and Handle().
//   * SharedBuf  — an immutable, reference-counted byte buffer. Moving a
//                  BufferWriter's vector into one costs nothing; aliasing it
//                  is a refcount bump. The only way to duplicate bytes is
//                  the explicit CopyOf(), which increments a global counter
//                  so the zero-copy contract test can assert the filters-off
//                  hot path performs no hidden memcpys. (The PS client owns
//                  its request buffers outright — a request never outlives
//                  its op — and sends an unfiltered one as a Slice of it.)
//
// Lifetime rule: a Slice never owns its bytes. A Slice taken from a
// SharedBuf (or a vector) is valid only while that owner is alive; APIs that
// retain bytes past the call take a SharedBuf, APIs that only read during
// the call take a Slice. See DESIGN.md §9.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
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

  /// Explicit materialization (not counted as a deep copy — callers that
  /// need owned bytes say so in the type system).
  std::vector<uint8_t> ToVector() const {
    return std::vector<uint8_t>(data_, data_ + size_);
  }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// \brief Immutable reference-counted byte buffer.
class SharedBuf {
 public:
  SharedBuf() = default;

  /// Takes ownership of `bytes` without copying.
  static SharedBuf FromVector(std::vector<uint8_t>&& bytes) {
    SharedBuf b;
    b.bytes_ = std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
    return b;
  }

  /// Deep-copies `s`. The ONLY copying constructor; counted so tests can
  /// prove a code path copies nothing.
  static SharedBuf CopyOf(Slice s) {
    deep_copies_.fetch_add(1, std::memory_order_relaxed);
    return FromVector(s.ToVector());
  }

  Slice slice() const {
    return bytes_ ? Slice(bytes_->data(), bytes_->size()) : Slice();
  }
  const uint8_t* data() const { return bytes_ ? bytes_->data() : nullptr; }
  size_t size() const { return bytes_ ? bytes_->size() : 0; }
  bool empty() const { return size() == 0; }

  /// Deep copies performed process-wide since the last ResetStats().
  static uint64_t DeepCopies() {
    return deep_copies_.load(std::memory_order_relaxed);
  }
  static void ResetStats() {
    deep_copies_.store(0, std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<const std::vector<uint8_t>> bytes_;
  inline static std::atomic<uint64_t> deep_copies_{0};
};

}  // namespace ps2
