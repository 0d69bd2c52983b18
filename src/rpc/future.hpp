// Completion handles for pipelined RPCs.
//
// A ReplyFuture is the caller's end of one call on an RpcClient: the client
// completes it (value or error) when the reply with the matching xid
// arrives, or fails it when the call runs out of retries, the connection
// dies with the call still outstanding, or the client is destroyed. No
// thread completes it in the background: a caller that waits on a future
// drives the client itself (it flushes and reads replies), so the future is
// used on the client's one caller thread. A minimal hand-rolled shared
// state (rather than std::future) so callers can poll readiness cheaply.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "xdr/xdr.hpp"

namespace cricket::rpc {

namespace detail {

struct ReplyState {
  bool ready = false;
  // XDR-encoded results.
  std::vector<std::uint8_t> value;
  std::exception_ptr error;
  /// Takes one step of the client that owns the call: flushes its batcher
  /// and reads or times out once. Returns false once the client has closed
  /// or been destroyed, by which time it has failed every call still
  /// pending. Set before the state is shared; empty on calls that are
  /// complete when issued (a window of one).
  std::function<bool()> drive;
};

}  // namespace detail

/// Write side of a ReplyState; owned by the client.
class ReplyPromise {
 public:
  ReplyPromise() : state_(std::make_shared<detail::ReplyState>()) {}

  void set_value(std::vector<std::uint8_t> value) const {
    state_->value = std::move(value);
    state_->ready = true;
  }

  void set_error(std::exception_ptr error) const {
    state_->error = std::move(error);
    state_->ready = true;
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

  /// Non-blocking readiness poll: reads nothing.
  [[nodiscard]] bool ready() const noexcept { return state_->ready; }

  /// Drives the client until this call completes. Only a pipelined call
  /// can be unready, and its client completes it before drive() returns
  /// false.
  void wait() const {
    while (!state_->ready && state_->drive()) {
    }
  }

  /// Blocks until completion; rethrows the call's error if it failed.
  [[nodiscard]] std::vector<std::uint8_t> get() {
    wait();
    if (state_->error) std::rethrow_exception(std::exchange(state_->error, {}));
    return std::move(state_->value);
  }

 private:
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
