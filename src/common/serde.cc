#include "common/serde.h"

#include "common/logging.h"

namespace ps2 {

Result<uint8_t> BufferReader::ReadU8() {
  if (remaining() < 1) return Status::OutOfRange("read past end of buffer");
  return data_[pos_++];
}

Result<uint64_t> BufferReader::ReadVarint() {
  uint64_t v;
  if (const char* error = DecodeVarint(&v)) return Status::OutOfRange(error);
  return v;
}

Status BufferReader::ReadDeltaKeys(uint64_t* out, size_t n) {
  uint64_t key = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t delta;
    if (const char* error = DecodeVarint(&delta)) {
      return Status::OutOfRange(error);
    }
    key += delta;
    out[i] = key;
  }
  return Status::OK();
}

Result<std::string> BufferReader::ReadString() {
  PS2_ASSIGN_OR_RETURN(uint64_t n, ReadVarint());
  if (n > remaining()) return Status::OutOfRange("string length exceeds buffer");
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

Result<uint64_t> BufferReader::ReadCount(size_t min_bytes_per_elem) {
  PS2_CHECK_GE(min_bytes_per_elem, 1u);
  PS2_ASSIGN_OR_RETURN(uint64_t n, ReadVarint());
  if (n > remaining() / min_bytes_per_elem) {
    return Status::OutOfRange("element count exceeds buffer");
  }
  return n;
}

Result<std::vector<uint64_t>> BufferReader::ReadVarintVector() {
  PS2_ASSIGN_OR_RETURN(uint64_t n, ReadVarint());
  if (n > remaining()) return Status::OutOfRange("varint vector too long");
  std::vector<uint64_t> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    PS2_ASSIGN_OR_RETURN(uint64_t x, ReadVarint());
    out.push_back(x);
  }
  return out;
}

}  // namespace ps2
