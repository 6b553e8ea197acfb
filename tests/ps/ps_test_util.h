#pragma once

// Test conveniences over PsClient's row ops and PsServer::Handle: one-row
// reads and writes through ReadRowsAsync / WriteRowsAsync, and raw request
// bytes through the WireFrame overload of Handle.

#include <utility>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "net/message.h"
#include "ps/ps_client.h"
#include "ps/ps_server.h"

namespace ps2 {

/// Reads `cols` of one row (the whole row by default).
inline Result<std::vector<double>> ReadRow(
    PsClient& client, RowRef ref, const RowSelector& cols =
        RowSelector::Range()) {
  PS2_ASSIGN_OR_RETURN(std::vector<std::vector<double>> rows,
                       client.ReadRowsAsync({ref}, cols).Get());
  return std::move(rows[0]);
}

/// ReadRow as a future.
inline PsFuture<std::vector<double>> ReadRowAsync(
    PsClient& client, RowRef ref, const RowSelector& cols =
        RowSelector::Range()) {
  return client.ReadRowsAsync({ref}, cols).Map<std::vector<double>>(
      [](std::vector<std::vector<double>>&& rows) {
        return std::move(rows[0]);
      });
}

/// Adds one row's dense or sparse delta.
inline Status WriteRow(PsClient& client, RowRef ref, RowDeltas delta,
                       const RowSelector& cols = RowSelector::Range()) {
  return client.WriteRowsAsync({ref}, delta, cols).Wait();
}

/// Runs raw request bytes on `server` stamped with `header` (untracked by
/// default).
inline Result<PsServer::HandleResult> HandleBytes(
    PsServer& server, const std::vector<uint8_t>& request,
    const RpcHeader& header = RpcHeader{}) {
  return server.Handle(header, WireFrame{Slice(request), 0});
}

}  // namespace ps2
