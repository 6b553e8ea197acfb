#pragma once

// Lightweight futures for the asynchronous PS client.
//
// A PsFuture<T> is a shared handle on the eventual Result<T> of one async
// client op (ReadRowsAsync, WriteRowsAsync, ...). It is deliberately tiny:
// no executors, no cancellation — just Wait/Get/Then plus the two pieces of
// bookkeeping the simulator needs:
//
//   * traffic harvest — an async op records its bytes/messages/rounds into a
//     future-local TaskTraffic, so that overlapped ops can share one round
//     of latency. The first Wait()/Get() on the *caller* thread runs the
//     harvest hook installed by the client, which merges that traffic into
//     the caller's TrafficScope (or charges the coordinator clock when
//     called from the driver).
//   * round accounting — the harvest hook also retires the op from the
//     client's outstanding count (leader/follower classification). If a
//     future is dropped without Wait/Get, the state's destructor runs the
//     hook: the op is retired AND the recorded traffic is charged (to the
//     ambient scope if the last owner is a task thread, else to the
//     coordinator clock), so abandoning a push-future cannot make a run
//     cheaper than waiting on it. Prefer Wait anyway — it charges the
//     traffic at a deterministic point in program order.
//
// Then(f) chains a computation onto completion. f runs on whichever thread
// completes the source future (inline, right away, when already done), so
// it must not block on other futures. Harvest duty transfers to the
// derived future at registration: waiting on the tail of a chain charges the
// whole chain's traffic exactly once.

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/result.h"
#include "net/network_model.h"

namespace ps2 {

/// \brief Empty value type for push-like async ops ("the ack arrived").
struct Ack {};

namespace internal {

/// Maps a continuation's return type R to the derived future's value type:
/// Result<U> unwraps to U, anything else is taken as-is.
template <typename R>
struct FutureValue {
  using type = R;
  static Result<R> Wrap(R&& v) { return Result<R>(std::move(v)); }
};
template <typename U>
struct FutureValue<Result<U>> {
  using type = U;
  static Result<U> Wrap(Result<U>&& v) { return std::move(v); }
};

template <typename T>
struct PsFutureState {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::optional<Result<T>> value;

  /// Traffic recorded by the op; written by the completing thread strictly
  /// before `done` flips, read by the harvesting thread strictly after.
  TaskTraffic traffic;

  /// Installed by the client at issue time; run at most once, on the first
  /// Wait/Get caller thread. Destroying it unrun still retires the op (the
  /// hook owns a retire token).
  std::function<void(const TaskTraffic&)> harvest;
  bool harvested = false;

  /// Run (without the lock held) by the completing thread.
  std::vector<std::function<void()>> continuations;

  ~PsFutureState() {
    // Abandoned future: the op ran and recorded traffic, but nobody waited.
    // The last owner charges it here —
    // no lock needed, ownership is exclusive by definition. See the header
    // comment; without this, dropped push-futures leaked their cost.
    if (!harvested && harvest) {
      harvested = true;
      auto hook = std::move(harvest);
      hook(traffic);
    }
  }

  void Complete(Result<T>&& result) {
    std::vector<std::function<void()>> ready;
    {
      std::lock_guard<std::mutex> lock(mu);
      value.emplace(std::move(result));
      done = true;
      ready.swap(continuations);
    }
    cv.notify_all();
    for (auto& fn : ready) fn();
  }
};

}  // namespace internal

/// \brief Shared handle on the eventual result of an async PS op.
template <typename T>
class PsFuture {
 public:
  PsFuture() = default;
  explicit PsFuture(std::shared_ptr<internal::PsFutureState<T>> state)
      : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }

  /// Blocks until completion, harvests traffic into the caller's scope, and
  /// returns the op's status (value untouched; call Get() for it).
  Status Wait() const {
    internal::PsFutureState<T>* s = Require();
    std::unique_lock<std::mutex> lock(s->mu);
    s->cv.wait(lock, [s] { return s->done; });
    Status status = s->value->status();
    Harvest(s, lock);
    return status;
  }

  /// Wait() then move the result out. At most one Get() per future chain.
  Result<T> Get() const {
    internal::PsFutureState<T>* s = Require();
    std::unique_lock<std::mutex> lock(s->mu);
    s->cv.wait(lock, [s] { return s->done; });
    Result<T> out = std::move(*s->value);
    Harvest(s, lock);
    return out;
  }

  /// True once the op has completed (non-blocking; does not harvest).
  bool Ready() const {
    internal::PsFutureState<T>* s = Require();
    std::lock_guard<std::mutex> lock(s->mu);
    return s->done;
  }

  /// Chains `f(Result<T>&&)` onto completion; returns a future of f's result
  /// (Result<U> returns unwrap to U). f runs on the completing thread — or
  /// inline, right here, if the source already completed. Harvest duty moves
  /// to the returned future, so only the tail of a chain needs Wait/Get.
  template <typename F>
  auto Then(F f) const {
    using R = std::invoke_result_t<F, Result<T>&&>;
    using V = internal::FutureValue<R>;
    using U = typename V::type;
    internal::PsFutureState<T>* s = Require();
    auto derived = std::make_shared<internal::PsFutureState<U>>();

    std::shared_ptr<internal::PsFutureState<T>> source = state_;
    auto run = [source, derived, f = std::move(f)]() mutable {
      Result<T> in = [&] {
        std::lock_guard<std::mutex> lock(source->mu);
        return std::move(*source->value);
      }();
      // The chain's traffic flows tail-ward so the tail's harvest sees it all.
      derived->traffic.MergeFrom(source->traffic);
      derived->Complete(V::Wrap(f(std::move(in))));
    };

    bool already_done;
    {
      std::lock_guard<std::mutex> lock(s->mu);
      derived->harvest = std::move(s->harvest);
      s->harvest = nullptr;
      already_done = s->done;
      if (!already_done) s->continuations.push_back(std::move(run));
    }
    if (already_done) run();
    return PsFuture<U>(std::move(derived));
  }

 private:
  internal::PsFutureState<T>* Require() const {
    PS2_CHECK(state_ != nullptr) << "operation on an invalid PsFuture";
    return state_.get();
  }

  /// Runs the harvest hook once; called with `lock` held on s->mu, releases
  /// it around the hook (the hook touches the caller's TrafficScope and the
  /// client's outstanding count, never this future).
  static void Harvest(internal::PsFutureState<T>* s,
                      std::unique_lock<std::mutex>& lock) {
    if (s->harvested || !s->harvest) return;
    s->harvested = true;
    auto hook = std::move(s->harvest);
    s->harvest = nullptr;
    lock.unlock();
    hook(s->traffic);
  }

  std::shared_ptr<internal::PsFutureState<T>> state_;
};

/// An already-completed future: no traffic, no harvest hook.
/// Used for validation errors and trivially empty ops.
template <typename T>
PsFuture<T> MakeReadyFuture(Result<T> result) {
  auto state = std::make_shared<internal::PsFutureState<T>>();
  state->Complete(std::move(result));
  return PsFuture<T>(std::move(state));
}

}  // namespace ps2
