#pragma once

// The receipt of one asynchronous PS client op (paper §5.1's asynchronous
// client). Every op — ReadRowsAsync, WriteRowsAsync, ... — runs its
// exchanges before its *Async call returns, so a PsFuture<T> is a completed,
// move-only value: the op's Result<T>, the TaskTraffic its exchanges
// recorded, and the handle that retires the op from its client's
// outstanding window (leader/follower rounds, ps/ps_client.h).
//
// Settling the receipt charges the traffic — to the ambient TrafficScope,
// or to the cluster clock when the coordinator holds it — and retires the
// op. The first Wait()/Get() settles; so does destroying an unsettled
// future or move-assigning over it, so abandoning a push cannot make a run
// cheaper than waiting on it. Prefer Wait: it charges at a fixed point in
// program order. Settle every future before its client is destroyed.

#include <cstdint>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/result.h"
#include "net/network_model.h"

namespace ps2 {

/// \brief Empty value type for push-like async ops ("the ack arrived").
struct Ack {};

class PsClient;

namespace internal {
/// Charges `traffic` and retires op `slot` of `client`, which keeps the
/// record's per-server table for a later op (ps_client.cc).
void SettleOp(PsClient* client, uint32_t slot, TaskTraffic* traffic);
}  // namespace internal

/// \brief The completed result of an async PS op, plus its unpaid traffic.
template <typename T>
class PsFuture {
 public:
  PsFuture() = default;
  /// An op answered without traffic (a validation error, an empty op):
  /// nothing to charge or retire.
  explicit PsFuture(Result<T> result) : result_(std::move(result)) {}

  PsFuture(PsFuture&& other) noexcept { Take(other); }
  PsFuture& operator=(PsFuture&& other) noexcept {
    if (this != &other) {
      Settle();
      Take(other);
    }
    return *this;
  }
  ~PsFuture() { Settle(); }

  /// False once Get() has consumed the value, and when empty or moved from.
  bool valid() const { return result_.has_value(); }

  /// Settles the op and returns its status; the value stays for Get().
  Status Wait() {
    PS2_CHECK(valid()) << "Wait on an invalid or consumed PsFuture";
    Settle();
    return result_->status();
  }

  /// Settles the op and moves its result out. A second Get() fails a check.
  Result<T> Get() {
    PS2_CHECK(valid()) << "Get on an invalid or consumed PsFuture";
    Settle();
    Result<T> out = std::move(*result_);
    result_.reset();
    return out;
  }

  /// This receipt holding `f(value)` in place of its value (an error passes
  /// through). The traffic and the retire handle move over unsettled.
  template <typename U, typename F>
  PsFuture<U> Map(F f) && {
    PS2_CHECK(valid()) << "Map on an invalid or consumed PsFuture";
    PsFuture<U> out(result_->ok() ? Result<U>(f(*std::move(*result_)))
                                  : Result<U>(result_->status()));
    result_.reset();
    out.traffic_ = std::move(traffic_);
    out.client_ = std::exchange(client_, nullptr);
    out.slot_ = slot_;
    return out;
  }

 private:
  friend class PsClient;
  template <typename>
  friend class PsFuture;

  PsFuture(Result<T> result, TaskTraffic traffic, PsClient* client,
           uint32_t slot)
      : result_(std::move(result)),
        traffic_(std::move(traffic)),
        client_(client),
        slot_(slot) {}

  void Settle() {
    if (client_ == nullptr) return;
    internal::SettleOp(std::exchange(client_, nullptr), slot_, &traffic_);
  }

  void Take(PsFuture& other) {
    result_ = std::move(other.result_);
    other.result_.reset();
    traffic_ = std::move(other.traffic_);
    client_ = std::exchange(other.client_, nullptr);
    slot_ = other.slot_;
  }

  std::optional<Result<T>> result_;
  TaskTraffic traffic_;
  PsClient* client_ = nullptr;  ///< null once settled (or never submitted)
  uint32_t slot_ = 0;           ///< the op's slot in the client's window
};

}  // namespace ps2
