#pragma once

// Binary serialization for RPC payloads.
//
// All worker<->server and driver<->executor payloads in PS2 pass through
// these writers/readers so that the network model charges for *real* bytes —
// e.g. the advantage of sparse pulls (indices + values) over dense pulls is
// measured from actual encoded sizes, not assumed.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"

namespace ps2 {

/// \brief Semantic tag of a marked payload span (see PayloadSection).
enum class SectionKind : uint8_t {
  kKeys = 0,       ///< a delta-varint sparse key list (key-cache candidate)
  kF64Values = 1,  ///< a raw little-endian f64 span (quantization candidate)
};

/// \brief A marked span of a serialized payload.
///
/// Sections are metadata only — the payload bytes are identical whether or
/// not anything was marked. The wire-level filter chain (net/filters.h) uses
/// them to locate key lists and value spans without re-parsing the opcode's
/// format.
struct PayloadSection {
  SectionKind kind = SectionKind::kKeys;
  uint64_t offset = 0;
  uint64_t len = 0;
};

/// Longest LEB128 encoding of a uint64_t.
constexpr size_t kMaxVarintBytes = 10;

/// \brief Append-only little-endian byte buffer writer.
class BufferWriter {
 public:
  BufferWriter() = default;
  explicit BufferWriter(size_t reserve, size_t sections = 0) {
    buf_.reserve(reserve);
    sections_.reserve(sections);
  }
  /// A writer over the buffers an earlier Release() and TakeSections()
  /// handed out: cleared, keeping their capacity, then reserved to
  /// `reserve` bytes, so a payload no larger than before allocates nothing.
  BufferWriter(std::vector<uint8_t> storage,
               std::vector<PayloadSection> sections, size_t reserve)
      : buf_(std::move(storage)), sections_(std::move(sections)) {
    buf_.clear();
    sections_.clear();
    buf_.reserve(reserve);
  }

  void WriteU8(uint8_t v) { buf_.push_back(v); }
  void WriteU32(uint32_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteI32(int32_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteF32(float v) { AppendRaw(&v, sizeof(v)); }
  void WriteF64(double v) { AppendRaw(&v, sizeof(v)); }

  /// Bulk doubles without a length prefix (caller knows the count).
  void WriteF64Span(const double* data, size_t n) {
    AppendRaw(data, n * sizeof(double));
  }

  /// `n` row values: one marked f64 span, or (`ints`) zigzag varints of
  /// llround(value) — the integer coding for count matrices.
  void WriteValues(const double* values, size_t n, bool ints) {
    if (ints) {
      for (size_t i = 0; i < n; ++i) {
        WriteSignedVarint(static_cast<int64_t>(std::llround(values[i])));
      }
      return;
    }
    BeginSection(SectionKind::kF64Values);
    WriteF64Span(values, n);
    EndSection();
  }

  /// Zigzag-encoded signed varint (small magnitudes take 1-2 bytes).
  void WriteSignedVarint(int64_t v) {
    WriteVarint((static_cast<uint64_t>(v) << 1) ^
                static_cast<uint64_t>(v >> 63));
  }

  /// Unsigned LEB128; small values (typical for counts/ids) take 1-2 bytes.
  void WriteVarint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
  }

  /// `n` ascending keys as delta varints, no length prefix: the key-list
  /// encoding of every sparse opcode (ReadDeltaKeys decodes it).
  void WriteDeltaKeys(const uint64_t* keys, size_t n) {
    const size_t start = buf_.size();
    buf_.resize(start + n * kMaxVarintBytes);
    uint8_t* p = buf_.data() + start;
    uint64_t prev = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t v = keys[i] - prev;
      prev = keys[i];
      while (v >= 0x80) {
        *p++ = static_cast<uint8_t>(v) | 0x80;
        v >>= 7;
      }
      *p++ = static_cast<uint8_t>(v);
    }
    buf_.resize(static_cast<size_t>(p - buf_.data()));
  }

  void WriteString(const std::string& s) {
    WriteVarint(s.size());
    AppendRaw(s.data(), s.size());
  }

  /// Raw bytes, no length prefix.
  void WriteBytes(Slice bytes) {
    if (!bytes.empty()) AppendRaw(bytes.data(), bytes.size());
  }

  /// Length-prefixed POD array.
  template <typename T>
  void WritePodVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteVarint(v.size());
    AppendRaw(v.data(), v.size() * sizeof(T));
  }

  /// Length-prefixed array of varint-encoded integers (compact for sorted or
  /// small index sets once delta-encoded by the caller).
  void WriteVarintVector(const std::vector<uint64_t>& v) {
    WriteVarint(v.size());
    for (uint64_t x : v) WriteVarint(x);
  }

  // ---- Section marks (filter metadata; no effect on the bytes) ----

  /// Opens a marked span of kind `kind` at the current position. Sections
  /// must not nest; EndSection() closes the open one.
  void BeginSection(SectionKind kind) {
    open_kind_ = kind;
    open_begin_ = buf_.size();
  }
  void EndSection() {
    if (!marks_) return;
    sections_.push_back({open_kind_, open_begin_, buf_.size() - open_begin_});
  }
  /// Records no section marks from here on: for a payload no filter reads.
  void DropSectionMarks() { marks_ = false; }
  /// Moves the recorded section list out (call before Release*()).
  std::vector<PayloadSection> TakeSections() { return std::move(sections_); }

  size_t size() const { return buf_.size(); }
  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> Release() { return std::move(buf_); }
  /// Moves the buffer into a SharedBuf without copying the bytes.
  SharedBuf ReleaseShared() { return SharedBuf::FromVector(std::move(buf_)); }

 private:
  void AppendRaw(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  std::vector<uint8_t> buf_;
  std::vector<PayloadSection> sections_;
  SectionKind open_kind_ = SectionKind::kKeys;
  size_t open_begin_ = 0;
  bool marks_ = true;
};

/// \brief Bounds-checked reader over a byte buffer.
class BufferReader {
 public:
  BufferReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit BufferReader(const std::vector<uint8_t>& buf)
      : BufferReader(buf.data(), buf.size()) {}
  /// Zero-copy view reader. The slice's owner must outlive the reader.
  explicit BufferReader(Slice s) : BufferReader(s.data(), s.size()) {}

  Result<uint8_t> ReadU8();
  Result<uint32_t> ReadU32() { return ReadPod<uint32_t>(); }
  Result<uint64_t> ReadU64() { return ReadPod<uint64_t>(); }
  Result<int32_t> ReadI32() { return ReadPod<int32_t>(); }
  Result<int64_t> ReadI64() { return ReadPod<int64_t>(); }
  Result<float> ReadF32() { return ReadPod<float>(); }
  Result<double> ReadF64() { return ReadPod<double>(); }
  Result<uint64_t> ReadVarint();
  Result<int64_t> ReadSignedVarint() {
    PS2_ASSIGN_OR_RETURN(uint64_t raw, ReadVarint());
    return static_cast<int64_t>((raw >> 1) ^ (0ULL - (raw & 1)));
  }
  Result<std::string> ReadString();

  /// A varint element count, rejected unless the rest of the buffer can hold
  /// that many elements of at least `min_bytes_per_elem` (>= 1) bytes each.
  /// Decoders size allocations from the result, so a forged count fails
  /// here instead of reserving without bound.
  Result<uint64_t> ReadCount(size_t min_bytes_per_elem);

  template <typename T>
  Result<std::vector<T>> ReadPodVector() {
    static_assert(std::is_trivially_copyable_v<T>);
    PS2_ASSIGN_OR_RETURN(uint64_t n, ReadVarint());
    if (n > (size_ - pos_) / sizeof(T)) {
      return Status::OutOfRange("pod vector length exceeds buffer");
    }
    std::vector<T> out(n);
    std::memcpy(out.data(), data_ + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return out;
  }

  Result<std::vector<uint64_t>> ReadVarintVector();

  /// Decodes `n` WriteDeltaKeys keys into `out`. The keys come back as
  /// sent: a forged delta may wrap, so callers range-check every key.
  Status ReadDeltaKeys(uint64_t* out, size_t n);

  /// Bulk doubles without a length prefix.
  Result<std::vector<double>> ReadF64Span(size_t n) {
    if (n > remaining() / sizeof(double)) {
      return Status::OutOfRange("f64 span exceeds buffer");
    }
    std::vector<double> out(n);
    if (n != 0) std::memcpy(out.data(), data_ + pos_, n * sizeof(double));
    pos_ += n * sizeof(double);
    return out;
  }

  /// Bulk doubles decoded straight into caller storage — the zero-extra-copy
  /// twin of ReadF64Span for parse paths that already own a destination.
  Status ReadF64Into(double* dst, size_t n) {
    if (n > remaining() / sizeof(double)) {
      return Status::OutOfRange("f64 span exceeds buffer");
    }
    // An empty destination may be null, which memcpy must never see.
    if (n != 0) std::memcpy(dst, data_ + pos_, n * sizeof(double));
    pos_ += n * sizeof(double);
    return Status::OK();
  }

  /// WriteValues' twin: `n` values into dst, f64s or (`ints`) integers.
  Status ReadValues(double* dst, size_t n, bool ints) {
    if (!ints) return ReadF64Into(dst, n);
    for (size_t i = 0; i < n; ++i) {
      PS2_ASSIGN_OR_RETURN(int64_t v, ReadSignedVarint());
      dst[i] = static_cast<double>(v);
    }
    return Status::OK();
  }

  /// Zero-copy view of the next `n` bytes (valid while the buffer lives).
  Result<Slice> ReadBytes(size_t n) {
    if (n > remaining()) {
      return Status::OutOfRange("byte span exceeds buffer");
    }
    Slice s(data_ + pos_, n);
    pos_ += n;
    return s;
  }

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  /// One LEB128 varint at the cursor; nullptr on success, else why not.
  const char* DecodeVarint(uint64_t* v) {
    uint64_t x = 0;
    for (int shift = 0;; shift += 7) {
      if (pos_ >= size_) return "truncated varint";
      if (shift >= 64) return "varint too long";
      const uint8_t byte = data_[pos_++];
      x |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
    }
    *v = x;
    return nullptr;
  }

  template <typename T>
  Result<T> ReadPod() {
    if (remaining() < sizeof(T)) {
      return Status::OutOfRange("read past end of buffer");
    }
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace ps2
