// ONC RPC client runtime: transaction management over a record-marked stream.
//
// This is the C++ analogue of the paper's RPC-Lib client core: it depends
// only on the Transport interface (as RPC-Lib depends only on Rust's std),
// so the identical client runs over a plain pipe, a real TCP socket, or the
// vnet-simulated unikernel network paths.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "rpc/record.hpp"
#include "rpc/rpc_msg.hpp"
#include "rpc/transport.hpp"
#include "xdr/xdr.hpp"

namespace cricket::rpc {

/// RPC-level failure (the transport worked but the server refused the call).
class RpcError : public std::runtime_error {
 public:
  enum class Kind {
    kProgUnavail,
    kProgMismatch,
    kProcUnavail,
    kGarbageArgs,
    kSystemErr,
    kDenied,
    kBadReply,
    /// Per-call deadline/attempt budget exhausted (faultnet retry layer).
    kDeadlineExceeded,
    /// Cricket extension: rejected at admission because the caller's tenant
    /// is over quota (see AcceptStat::kQuotaExceeded). Retryable after
    /// backoff — the connection is still healthy.
    kQuotaExceeded,
    /// Cricket extension: the tenant is frozen for live migration (see
    /// AcceptStat::kMigrating). The call did not execute; with retry
    /// enabled the client re-sends the same xid through its reconnect
    /// factory so the retry follows the migration's redirect.
    kMigrating,
  };

  RpcError(Kind kind, std::string what)
      : std::runtime_error(std::move(what)), kind_(kind) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

/// Client-side resilience knobs: per-call deadlines and idempotency-aware
/// retry with capped exponential backoff and deterministic jitter. Disabled
/// by default — a retry against a server without the duplicate-request cache
/// would re-execute non-idempotent CUDA calls.
struct RetryPolicy {
  bool enabled = false;
  /// Total tries per call, including the first (so 4 = 1 send + 3 retries).
  std::uint32_t max_attempts = 4;
  /// How long one attempt waits for its reply before re-sending.
  std::chrono::nanoseconds attempt_timeout = std::chrono::milliseconds(200);
  /// Whole-call budget across attempts + backoff. Zero = attempts-only.
  std::chrono::nanoseconds deadline = std::chrono::seconds(2);
  /// Backoff before retry k (1-based) is
  ///   min(backoff_cap, backoff_base << (k-1)) * jitter,  jitter ∈ [0.5, 1)
  /// with jitter drawn from a generator seeded by (seed ^ xid ^ k) — the
  /// same seed reproduces the same retry schedule exactly.
  std::chrono::nanoseconds backoff_base = std::chrono::milliseconds(1);
  std::chrono::nanoseconds backoff_cap = std::chrono::milliseconds(100);
  std::uint64_t seed = 0x5EEDF00Dull;
  /// True when the server runs the duplicate-request cache, making every
  /// procedure safe to retry. When false only `idempotent_procs` retry;
  /// anything else fails with kDeadlineExceeded on the first timeout.
  bool assume_at_most_once = true;
  std::vector<std::uint32_t> idempotent_procs{};
};

/// Backoff before retry `k` (1-based) under `policy`: capped exponential
/// with deterministic jitter. Shared by both RPC cores (RpcClient and
/// rpcflow::AsyncRpcChannel) so they retry on the same schedule.
[[nodiscard]] std::chrono::nanoseconds backoff_for(const RetryPolicy& policy,
                                                   std::uint32_t xid,
                                                   std::uint32_t k);

/// The RpcError a reply stands for, or nullopt when the call was accepted
/// and succeeded (its results are then the call's results).
[[nodiscard]] std::optional<RpcError> reply_error(const ReplyMsg& reply);

struct ClientOptions {
  std::uint32_t max_fragment = RecordWriter::kDefaultMaxFragment;
  /// Initial transaction id; subsequent calls increment.
  std::uint32_t initial_xid = 0x10000000;
  RetryPolicy retry{};
  /// Produces a fresh transport to the same server after a connection-level
  /// failure. Without it a dead connection is fatal to the call.
  std::function<std::unique_ptr<Transport>()> reconnect{};
};

/// Client statistics (useful for the paper's API-call accounting, §4.1).
struct ClientStats {
  std::uint64_t calls = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t retries = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t reconnects = 0;
  /// Replies for an older xid, skipped while retrying (the original answer
  /// to a call we already re-sent).
  std::uint64_t stale_replies = 0;
  /// kMigrating rejections absorbed by the retry layer: the call was
  /// re-sent (through the reconnect factory, following the migration's
  /// redirect) instead of failing.
  std::uint64_t migrating_redirects = 0;
};

/// Synchronous RPC client bound to one (program, version) on one transport.
/// Not thread-safe: one outstanding call at a time, matching the paper's
/// single-threaded RPC usage ("the RPC library is single-threaded", §4.2).
class RpcClient {
 public:
  RpcClient(std::unique_ptr<Transport> transport, std::uint32_t prog,
            std::uint32_t vers, ClientOptions options = {});
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Sets the credential sent with subsequent calls (default AUTH_NONE).
  void set_credential(OpaqueAuth cred) { cred_ = std::move(cred); }

  /// Issues `proc` with pre-encoded arguments; returns raw encoded results.
  /// Throws RpcError / TransportError on failure.
  std::vector<std::uint8_t> call_raw(std::uint32_t proc,
                                     std::span<const std::uint8_t> args);

  /// Typed convenience: XDR-encodes `args...` in order, decodes one `Res`.
  template <typename Res, typename... Args>
  Res call(std::uint32_t proc, const Args&... args) {
    xdr::Encoder enc;
    (xdr_encode(enc, args), ...);
    const auto results = call_raw(proc, enc.bytes());
    xdr::Decoder dec(results);
    Res res{};
    xdr_decode(dec, res);
    dec.expect_exhausted();
    return res;
  }

  /// Typed call with void result.
  template <typename... Args>
  void call_void(std::uint32_t proc, const Args&... args) {
    xdr::Encoder enc;
    (xdr_encode(enc, args), ...);
    const auto results = call_raw(proc, enc.bytes());
    if (!results.empty())
      throw RpcError(RpcError::Kind::kBadReply, "expected void result");
  }

  /// RFC 5531 null procedure — liveness ping.
  void ping() { call_void(0); }

  [[nodiscard]] const ClientStats& stats() const noexcept { return stats_; }
  [[nodiscard]] Transport& transport() noexcept { return *transport_; }

 private:
  std::vector<std::uint8_t> call_raw_retrying(const CallMsg& call);
  [[nodiscard]] bool try_reconnect();

  std::unique_ptr<Transport> transport_;
  RecordWriter writer_;
  RecordReader reader_;
  std::uint32_t prog_;
  std::uint32_t vers_;
  std::uint32_t next_xid_;
  OpaqueAuth cred_;
  ClientStats stats_;
  ClientOptions options_;
};

}  // namespace cricket::rpc
