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

/// The rows of a block, one vector each (for comparisons in tests).
inline std::vector<std::vector<double>> Rows(const RowBlock& block) {
  std::vector<std::vector<double>> rows(block.rows());
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i].assign(block.row(i), block.row(i) + block.width(i));
  }
  return rows;
}

/// ReadRowsAsync's block as one vector per row.
inline Result<std::vector<std::vector<double>>> ReadRows(
    PsClient& client, const std::vector<RowRef>& rows,
    const RowSelector& cols) {
  PS2_ASSIGN_OR_RETURN(RowBlock block, client.ReadRowsAsync(rows, cols).Get());
  return Rows(block);
}

/// Reads `cols` of one row (the whole row by default).
inline Result<std::vector<double>> ReadRow(
    PsClient& client, RowRef ref, const RowSelector& cols =
        RowSelector::Range()) {
  PS2_ASSIGN_OR_RETURN(RowBlock block,
                       client.ReadRowsAsync({ref}, cols).Get());
  return std::move(block.values);
}

/// ReadRow as a future.
inline PsFuture<std::vector<double>> ReadRowAsync(
    PsClient& client, RowRef ref, const RowSelector& cols =
        RowSelector::Range()) {
  auto values = [](RowBlock&& block) { return std::move(block.values); };
  return client.ReadRowsAsync({ref}, cols).Map<std::vector<double>>(values);
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
