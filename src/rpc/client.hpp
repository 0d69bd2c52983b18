// ONC RPC client core: transaction management over a record-marked stream.
//
// This is the C++ analogue of the paper's RPC-Lib client core: it depends
// only on the Transport interface (as RPC-Lib depends only on Rust's std),
// so the identical client runs over a plain pipe, a real TCP socket, or the
// vnet-simulated unikernel network paths.
//
// Like the paper's client ("the RPC library is single-threaded", §4.2) it
// starts no thread at any depth: replies are read, and retry timers fired,
// on the caller's thread while it waits. ClientOptions::max_outstanding
// sets how many calls may be on the wire at once:
//   * 1 (default, the paper's client): each call is written with
//     RecordWriter and its reply read with RecordReader before the call
//     returns.
//   * N > 1: up to N calls on the wire at once, through the small-call
//     batcher. A caller that waits (on a ReplyFuture, at a full window, in
//     drain()) flushes the batcher and reads replies, matching each, in any
//     order, to its ReplyFuture by xid.
// Everything else exists once for both: xids, credential, encoding, reply
// pre-flight and classification, the retry timers and decision, reconnect
// and stats.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "rpc/batcher.hpp"
#include "rpc/future.hpp"
#include "rpc/record.hpp"
#include "rpc/rpc_msg.hpp"
#include "rpc/transport.hpp"
#include "rpc/wire_bounds.hpp"
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
    /// enabled the client re-opens through its reconnect factory and
    /// re-sends the same xid, so the retry follows the migration's
    /// redirect.
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
  /// anything else fails with kDeadlineExceeded on the first timeout or
  /// connection loss (a kMigrating refusal is always retryable: the call
  /// never executed).
  bool assume_at_most_once = true;
  std::vector<std::uint32_t> idempotent_procs{};
};

/// Backoff before retry `k` (1-based) under `policy`: capped exponential
/// with deterministic jitter. Retry k is sent this long after attempt k
/// was lost.
[[nodiscard]] std::chrono::nanoseconds backoff_for(const RetryPolicy& policy,
                                                   std::uint32_t xid,
                                                   std::uint32_t k);

/// The RpcError a reply stands for, or nullopt when the call was accepted
/// and succeeded (its results are then the call's results).
[[nodiscard]] std::optional<RpcError> reply_error(const ReplyMsg& reply);

struct ClientOptions {
  /// Calls on the wire at once: 1 completes each call before it returns;
  /// more pipelines them (see the file comment). At the cap call_async
  /// reads replies until one frees a slot.
  std::uint32_t max_outstanding = 1;
  /// Initial transaction id; subsequent calls increment.
  std::uint32_t initial_xid = 0x10000000;
  /// Small-call coalescing when max_outstanding > 1 (off by default).
  CallBatcher::Options batch{};
  /// rpclgen-generated wire bounds (e.g. proto::bounds::kProcBounds): a
  /// reply larger than its call's proven result bound fails the call with
  /// kBadReply before decode. Must outlive the client (static tables do).
  std::span<const ProcWireBounds> bounds{};
  RetryPolicy retry{};
  /// Fresh transport to the same server, used with retry on after a lost
  /// connection or a kMigrating refusal. Without it a dead link is fatal.
  std::function<std::unique_ptr<Transport>()> reconnect{};
};

/// Client statistics (useful for the paper's API-call accounting, §4.1).
struct ClientStats {
  std::uint64_t calls = 0;
  std::uint64_t replies = 0;    // replies matched to a pending call
  std::uint64_t failed = 0;     // calls completed with an error
  std::uint64_t unmatched = 0;  // undecodable records for no pending call
  std::uint64_t stale_replies = 0;  // replies for an older xid, dropped
  std::uint64_t preflight_rejected = 0;  // oversized replies failed undecoded
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint32_t max_in_flight = 0;  // high-water mark of pending calls
  std::uint64_t retries = 0;        // attempts beyond the first
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t migrating_redirects = 0;  // kMigrating refusals re-sent
};

/// RPC client bound to one (program, version) on one transport. One caller
/// at a time at every depth: the client, and the futures it hands out, are
/// driven by whichever thread is waiting.
///
/// Above depth 1 replies are read and retry timers fire only while the
/// caller waits (a blocking call, a future's get(), a full window, drain()),
/// so a lost call issued with call_async is re-sent at the caller's next
/// wait. A caller blocked in a send reads nothing, so the replies to a full
/// window must fit in what the transport buffers toward the client (the
/// CUDA client's fire-and-forget calls answer with an error code).
/// Destruction flushes, half-closes the transport and fails every call
/// still pending with TransportError.
class RpcClient {
 public:
  RpcClient(std::unique_ptr<Transport> transport, std::uint32_t prog,
            std::uint32_t vers, ClientOptions options = {});
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Sets the credential sent with subsequent calls (default AUTH_NONE).
  void set_credential(OpaqueAuth cred) CRICKET_EXCLUDES(mu_);

  /// Issues `proc` with pre-encoded arguments; the future holds the raw
  /// results, or RpcError / TransportError. At max_outstanding 1 the call
  /// has completed on return; above it this reads replies only at a full
  /// window.
  [[nodiscard]] ReplyFuture call_raw_async(std::uint32_t proc,
                                           std::span<const std::uint8_t> args)
      CRICKET_EXCLUDES(mu_);

  /// Typed call_raw_async: XDR-encodes `args...`, decodes one `Res` at get().
  template <typename Res, typename... Args>
  [[nodiscard]] TypedFuture<Res> call_async(std::uint32_t proc,
                                            const Args&... args) {
    return TypedFuture<Res>(call_raw_async(proc, encode_args(args...)));
  }

  /// Issues `proc`, flushes and waits for its results; throws RpcError /
  /// TransportError on failure. Calls issued earlier stay in flight.
  std::vector<std::uint8_t> call_raw(std::uint32_t proc,
                                     std::span<const std::uint8_t> args) {
    auto future = call_raw_async(proc, args);
    flush();
    return future.get();
  }

  /// Typed call: XDR-encodes `args...` in order, decodes one `Res`.
  template <typename Res, typename... Args>
  Res call(std::uint32_t proc, const Args&... args) {
    auto future = call_async<Res>(proc, args...);
    flush();
    return future.get();
  }

  /// Typed call with void result.
  template <typename... Args>
  void call_void(std::uint32_t proc, const Args&... args) {
    if (!call_raw(proc, encode_args(args...)).empty())
      throw RpcError(RpcError::Kind::kBadReply, "expected void result");
  }

  /// RFC 5531 null procedure — liveness ping.
  void ping() { call_void(0); }

  /// Sends anything the batcher is still holding.
  void flush();

  /// Flushes, then reads replies until every outstanding call has completed
  /// (successfully or not).
  void drain() CRICKET_EXCLUDES(mu_);

  [[nodiscard]] std::uint32_t outstanding() const CRICKET_EXCLUDES(mu_);
  [[nodiscard]] ClientStats stats() const CRICKET_EXCLUDES(mu_);
  [[nodiscard]] Transport& transport() noexcept { return *transport_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// A call awaiting its reply. `max_reply_bytes` is fixed at call time,
  /// since a reply names only its xid. With retry on, `record` keeps the
  /// encoded call for re-sending under the same xid, and `due` is when the
  /// attempt times out or, while `backing_off`, when the next is sent.
  struct PendingCall {
    ReplyPromise promise;
    std::uint32_t proc = 0;
    std::uint64_t max_reply_bytes = kUnboundedWireSize;
    bool retryable = true;
    std::vector<std::uint8_t> record;
    std::uint32_t attempts = 1;
    bool backing_off = false;
    Clock::time_point due = Clock::time_point::max();
    Clock::time_point hard_deadline = Clock::time_point::max();
  };
  using Pending = std::map<std::uint32_t, PendingCall>;

  template <typename... Args>
  static std::vector<std::uint8_t> encode_args(const Args&... args) {
    xdr::Encoder enc;
    (xdr_encode(enc, args), ...);
    return enc.take();
  }

  /// Writes one record: RecordWriter at depth 1, the batcher above it.
  void send(std::span<const std::uint8_t> record) CRICKET_EXCLUDES(mu_);
  /// Depth 1: steps until `future` completes.
  void await(const ReplyFuture& future) CRICKET_EXCLUDES(mu_);
  /// Depth > 1, one wait's unit of work: sends what the batcher holds, then
  /// steps. Returns false once the client has closed.
  bool pump() CRICKET_EXCLUDES(mu_);

  /// Fires due retry timers and re-sends what they release; otherwise reads
  /// and handles one reply, and every whole reply already buffered behind
  /// it, waiting no later than the next timer. Every wait at every depth is
  /// a loop of this. Returns false once the client has closed.
  bool step() CRICKET_EXCLUDES(mu_);
  /// Classifies one reply record and completes, retries or drops it.
  void on_record(std::span<const std::uint8_t> record) CRICKET_EXCLUDES(mu_);
  /// Fires due timers and returns the records to re-send now; `next_due`
  /// is when the next timer fires (max() when none runs).
  std::vector<std::vector<std::uint8_t>> expire_locked(
      Clock::time_point now, Clock::time_point& next_due)
      CRICKET_REQUIRES(mu_);
  /// Why `call` may not be tried again, or nullptr when it may.
  [[nodiscard]] const char* retry_refusal(const PendingCall& call,
                                          std::uint32_t xid,
                                          Clock::time_point now,
                                          bool migrating) const;
  /// The call lost its attempt: schedule the next one after its backoff,
  /// or fail it with kDeadlineExceeded.
  Pending::iterator retry_or_fail_locked(Pending::iterator it,
                                         Clock::time_point now,
                                         bool migrating = false)
      CRICKET_REQUIRES(mu_);
  /// Replaces a dead or abandoned connection through the factory; every
  /// call with an attempt on it loses that attempt. Without retry or a
  /// factory, or when the factory fails, every pending call fails and the
  /// client closes. Returns whether the client is still open.
  bool reconnect_locked(Clock::time_point now, const std::string& reason)
      CRICKET_REQUIRES(mu_);
  Pending::iterator fail_locked(Pending::iterator it, std::exception_ptr error)
      CRICKET_REQUIRES(mu_);
  /// Fails every pending call with its own `make_error()`, so no two
  /// futures share (and release) one exception object.
  template <typename MakeError>
  void fail_all_locked(const MakeError& make_error) CRICKET_REQUIRES(mu_) {
    for (auto it = pending_.begin(); it != pending_.end();)
      it = fail_locked(it, std::make_exception_ptr(make_error()));
  }

  std::unique_ptr<Transport> transport_;
  RecordWriter writer_;  // depth 1
  RecordReader reader_;  // read only by step()
  std::vector<std::uint8_t> record_;  // step()'s reply buffer
  std::uint32_t prog_;
  std::uint32_t vers_;
  ClientOptions options_;
  // Depth > 1 only: the batcher, and a pointer to this client that owns
  // nothing; the futures' drive hooks hold weak copies, which expire with
  // the client.
  std::unique_ptr<CallBatcher> batcher_;
  std::shared_ptr<RpcClient> self_;

  mutable sim::Mutex mu_;
  Pending pending_ CRICKET_GUARDED_BY(mu_);
  std::uint32_t next_xid_ CRICKET_GUARDED_BY(mu_);
  OpaqueAuth cred_ CRICKET_GUARDED_BY(mu_);
  bool dead_ CRICKET_GUARDED_BY(mu_) = false;
  ClientStats stats_ CRICKET_GUARDED_BY(mu_);
};

}  // namespace cricket::rpc
