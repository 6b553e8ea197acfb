#pragma once

// Configuration of the wire-level filter chain (net/filters.h).
//
// Three filters, identified by bits so a mask can travel with every frame:
//
//   keycache  — identical re-sent sparse key lists are replaced by a 64-bit
//               content hash the server resolves from its key-set cache.
//   delta     — f64 value spans are quantized to 16-bit fixed point and
//               delta+zigzag-varint coded (lossy; bounded error, see
//               net/filters.h).
//   compress  — dictionary/RLE byte compressor over the framed body.
//
// The config is one cluster-wide mask applied to every opcode. The
// default-constructed config is OFF: existing byte accounting is unchanged
// unless a run opts in (`ps2run --filters=...`, ClusterSpec::filters).

#include <cstdint>
#include <string>

#include "common/result.h"

namespace ps2 {

inline constexpr uint8_t kFilterKeyCache = 1u << 0;
inline constexpr uint8_t kFilterDelta = 1u << 1;
inline constexpr uint8_t kFilterCompress = 1u << 2;
inline constexpr uint8_t kFilterAll =
    kFilterKeyCache | kFilterDelta | kFilterCompress;

struct FilterConfig {
  /// Filter mask for every request (and its response).
  uint8_t bits = 0;

  bool enabled() const { return bits != 0; }

  /// Parses "off" / "" / a comma list of {keycache, delta, compress, all}.
  static Result<FilterConfig> Parse(const std::string& text);

  /// Canonical comma list ("off" when disabled).
  std::string ToString() const;
};

}  // namespace ps2
