// Completion handles for pipelined RPCs.
//
// A ReplyFuture is the caller's end of one call on an RpcClient: the client
// completes it (value or error) when the reply with the matching xid
// arrives, or fails it when the call runs out of retries or the connection
// dies with the call still outstanding. A minimal hand-rolled shared state
// (rather than std::future) so the client can complete many futures under
// one lock sweep and callers can poll readiness cheaply.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/annotations.hpp"
#include "xdr/xdr.hpp"

namespace cricket::rpc {

namespace detail {

struct ReplyState {
  sim::Mutex mu;
  sim::CondVar cv;
  bool ready CRICKET_GUARDED_BY(mu) = false;
  // XDR-encoded results.
  std::vector<std::uint8_t> value CRICKET_GUARDED_BY(mu);
  std::exception_ptr error CRICKET_GUARDED_BY(mu);
  /// Invoked (outside the lock) when a caller is about to block on this
  /// future while it is not ready. The client installs it on batched calls:
  /// nothing flushes the batcher in the background, so blocking on an
  /// unflushed call would hang forever — the hook flushes (and counts the
  /// near-miss) instead. Set before the state is shared; never mutated
  /// afterwards.
  std::function<void()> on_block;
};

}  // namespace detail

/// Write side of a ReplyState; owned by the client.
class ReplyPromise {
 public:
  ReplyPromise() : state_(std::make_shared<detail::ReplyState>()) {}

  void set_value(std::vector<std::uint8_t> value) const
      CRICKET_EXCLUDES(state_->mu) {
    {
      sim::MutexLock lock(state_->mu);
      state_->value = std::move(value);
      state_->ready = true;
    }
    state_->cv.notify_all();
  }

  void set_error(std::exception_ptr error) const
      CRICKET_EXCLUDES(state_->mu) {
    {
      sim::MutexLock lock(state_->mu);
      state_->error = std::move(error);
      state_->ready = true;
    }
    state_->cv.notify_all();
  }

  [[nodiscard]] std::shared_ptr<detail::ReplyState> state() const {
    return state_;
  }

 private:
  std::shared_ptr<detail::ReplyState> state_;
};

/// Caller's handle to one pipelined call's raw (XDR-encoded) results.
class ReplyFuture {
 public:
  ReplyFuture() = default;
  explicit ReplyFuture(std::shared_ptr<detail::ReplyState> state)
      : state_(std::move(state)) {}

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

  /// Non-blocking readiness poll.
  [[nodiscard]] bool ready() const CRICKET_EXCLUDES(state_->mu) {
    sim::MutexLock lock(state_->mu);
    return state_->ready;
  }

  void wait() const CRICKET_EXCLUDES(state_->mu) {
    run_on_block_hook();
    sim::MutexLock lock(state_->mu);
    while (!state_->ready) state_->cv.wait(state_->mu);
  }

  /// Blocks until completion; rethrows the call's error if it failed.
  [[nodiscard]] std::vector<std::uint8_t> get() CRICKET_EXCLUDES(state_->mu) {
    run_on_block_hook();
    sim::MutexLock lock(state_->mu);
    while (!state_->ready) state_->cv.wait(state_->mu);
    // The waiter takes the error over, so the thread that completed the
    // call never holds the last reference to an exception in flight here.
    if (state_->error) std::rethrow_exception(std::exchange(state_->error, {}));
    return std::move(state_->value);
  }

 private:
  /// If we are about to block and the state carries an on_block hook, run
  /// it outside the lock (it may call back into the client/batcher).
  void run_on_block_hook() const CRICKET_EXCLUDES(state_->mu) {
    if (!state_->on_block) return;
    {
      sim::MutexLock lock(state_->mu);
      if (state_->ready) return;
    }
    state_->on_block();
  }

  std::shared_ptr<detail::ReplyState> state_;
};

/// Typed view over a ReplyFuture: XDR-decodes one `Res` on get().
template <typename Res>
class TypedFuture {
 public:
  TypedFuture() = default;
  explicit TypedFuture(ReplyFuture raw) : raw_(std::move(raw)) {}

  [[nodiscard]] bool valid() const noexcept { return raw_.valid(); }
  [[nodiscard]] bool ready() const { return raw_.ready(); }
  void wait() const { raw_.wait(); }

  [[nodiscard]] Res get() {
    const auto bytes = raw_.get();
    xdr::Decoder dec(bytes);
    Res res{};
    xdr_decode(dec, res);
    dec.expect_exhausted();
    return res;
  }

 private:
  ReplyFuture raw_;
};

}  // namespace cricket::rpc
