#include "common/serde.h"

#include "common/logging.h"

namespace ps2 {

Result<uint8_t> BufferReader::ReadU8() {
  if (remaining() < 1) return Status::OutOfRange("read past end of buffer");
  return data_[pos_++];
}

Result<uint64_t> BufferReader::ReadVarint() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (remaining() < 1) return Status::OutOfRange("truncated varint");
    if (shift >= 64) return Status::OutOfRange("varint too long");
    uint8_t byte = data_[pos_++];
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return v;
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
