#pragma once

// RPC message framing.
//
// PS2's real implementation uses Netty + Protobuf; here every request and
// response between workers, servers and the driver is a genuinely
// serialized payload so that byte accounting is exact. Delivery is an
// in-process method call; *cost* is charged through the traffic recorder /
// cost model.

#include <cstdint>

#include "common/slice.h"

namespace ps2 {

/// \brief The fixed framing every message pays on top of its payload.
struct Message {
  /// Matches a typical Netty frame: length, ids, kind, correlation id. The
  /// retry protocol's identity fields — client id, per-client sequence
  /// number and attempt (ps/ps_types.h RpcHeader) — ride the correlation-id
  /// slot of this fixed header, so stamping every request does not change
  /// the byte accounting anywhere.
  static constexpr uint64_t kHeaderBytes = 24;
};

/// \brief Zero-copy view of one payload as it crosses the (simulated) wire.
///
/// `payload` is a view into the sender's buffer — delivery is an in-process
/// call, so no copy is ever required; the receiver decodes or parses in
/// place. `filter_mask` says which wire filters (net/filter_config.h) were
/// applied and must be undone on decode. Like the RpcHeader, the mask rides
/// the fixed framing header (one spare byte of the correlation-id slot), so
/// it adds nothing to the byte accounting and a filters-off frame is
/// byte-identical to the pre-filter wire format. Requests keep their opcode
/// verbatim at payload[0] whatever the mask, so dedup peeking and dispatch
/// never need a decode.
struct WireFrame {
  Slice payload;
  uint8_t filter_mask = 0;

  uint64_t WireBytes() const { return Message::kHeaderBytes + payload.size(); }
};

}  // namespace ps2
