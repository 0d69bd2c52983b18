#include "rpc/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/rng.hpp"

namespace cricket::rpc {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

/// Jitter lies in [0.5, 1) so two clients sharing a seed never sync their
/// retries per-call, while a re-run with the same seed reproduces the exact
/// schedule.
std::chrono::nanoseconds backoff_for(const RetryPolicy& policy,
                                     std::uint32_t xid, std::uint32_t k) {
  const std::uint32_t shift = std::min(k - 1, 30u);
  auto step = policy.backoff_base * (1u << shift);
  step = std::min(step, policy.backoff_cap);
  sim::Xoshiro256ss jitter(policy.seed ^ xid ^ k);
  const double factor = 0.5 + 0.5 * jitter.next_double();
  return std::chrono::nanoseconds(
      static_cast<std::int64_t>(static_cast<double>(step.count()) * factor));
}

std::optional<RpcError> reply_error(const ReplyMsg& reply) {
  if (reply.stat == ReplyStat::kDenied) {
    return RpcError(RpcError::Kind::kDenied,
                    reply.reject_stat == RejectStat::kRpcMismatch
                        ? "call denied: RPC version mismatch"
                        : "call denied: authentication error");
  }
  switch (reply.accept_stat) {
    case AcceptStat::kSuccess:
      return std::nullopt;
    case AcceptStat::kProgUnavail:
      return RpcError(RpcError::Kind::kProgUnavail, "program unavailable");
    case AcceptStat::kProgMismatch: {
      const auto mi = reply.mismatch.value_or(MismatchInfo{});
      return RpcError(RpcError::Kind::kProgMismatch,
                      "program version mismatch (supported " +
                          std::to_string(mi.low) + ".." +
                          std::to_string(mi.high) + ")");
    }
    case AcceptStat::kProcUnavail:
      return RpcError(RpcError::Kind::kProcUnavail, "procedure unavailable");
    case AcceptStat::kGarbageArgs:
      return RpcError(RpcError::Kind::kGarbageArgs,
                      "server could not decode arguments");
    case AcceptStat::kSystemErr:
      return RpcError(RpcError::Kind::kSystemErr, "server system error");
    case AcceptStat::kQuotaExceeded:
      return RpcError(RpcError::Kind::kQuotaExceeded,
                      std::string("tenant quota exceeded: ") +
                          quota_reason_name(reply.quota_reason));
    case AcceptStat::kMigrating:
      return RpcError(RpcError::Kind::kMigrating,
                      "tenant is being migrated; retry via reconnect");
  }
  return RpcError(RpcError::Kind::kBadReply, "invalid accept_stat");
}

RpcClient::RpcClient(std::unique_ptr<Transport> transport, std::uint32_t prog,
                     std::uint32_t vers, ClientOptions options)
    : transport_(std::move(transport)),
      writer_(*transport_, options.max_fragment),
      reader_(*transport_),
      prog_(prog),
      vers_(vers),
      next_xid_(options.initial_xid),
      options_(std::move(options)) {}

RpcClient::~RpcClient() {
  try {
    transport_->shutdown();
  } catch (...) {  // destructor must not throw
  }
}

bool RpcClient::try_reconnect() {
  if (!options_.reconnect) return false;
  std::unique_ptr<Transport> fresh;
  try {
    fresh = options_.reconnect();
  } catch (const TransportError&) {
    return false;  // server still down; the backoff loop will come back
  }
  if (!fresh) return false;
  transport_ = std::move(fresh);
  writer_ = RecordWriter(*transport_, options_.max_fragment);
  reader_ = RecordReader(*transport_);
  ++stats_.reconnects;
  static obs::Counter& reconnects = obs::Registry::global().counter(
      "cricket_rpc_reconnects_total", {},
      "Client transport reconnects after connection failure");
  reconnects.inc();
  return true;
}

std::vector<std::uint8_t> RpcClient::call_raw(
    std::uint32_t proc, std::span<const std::uint8_t> args) {
  CallMsg call;
  call.xid = next_xid_++;
  call.prog = prog_;
  call.vers = vers_;
  call.proc = proc;
  call.cred = cred_;
  call.args.assign(args.begin(), args.end());

  if (options_.retry.enabled) return call_raw_retrying(call);

  const obs::ScopedXid trace_xid(call.xid);
  std::vector<std::uint8_t> record;
  {
    obs::Span span(obs::Layer::kClientSerialize);
    record = encode_call(call);
    span.set_arg(record.size());
  }
  {
    obs::Span span(obs::Layer::kChanSend, nullptr, record.size());
    writer_.write_record(record);
  }
  stats_.bytes_sent += record.size();
  ++stats_.calls;

  const obs::Span wait_span(obs::Layer::kClientWait);
  std::vector<std::uint8_t> reply_record;
  // This channel never has more than one call outstanding, so the reply xid
  // must match the call xid exactly; anything else is a misbehaving peer (or
  // a desynchronized stream) and silently skipping it would only turn the
  // protocol violation into a hard-to-diagnose hang one call later.
  if (!reader_.read_record(reply_record))
    throw TransportError("connection closed while awaiting reply");
  stats_.bytes_received += reply_record.size();
  ReplyMsg reply = decode_reply(reply_record);
  if (reply.xid != call.xid)
    throw RpcError(RpcError::Kind::kBadReply,
                   "reply xid mismatch: expected " + std::to_string(call.xid) +
                       ", got " + std::to_string(reply.xid) +
                       " (out-of-order or stale reply on a synchronous "
                       "channel)");
  if (auto error = reply_error(reply)) throw *error;
  return std::move(reply.results);
}

std::vector<std::uint8_t> RpcClient::call_raw_retrying(const CallMsg& call) {
  static obs::Counter& retries_total = obs::Registry::global().counter(
      "cricket_rpc_retries_total", {},
      "RPC call attempts beyond the first (timeout or transport failure)");
  static obs::Counter& deadline_total = obs::Registry::global().counter(
      "cricket_rpc_deadline_exceeded_total", {},
      "RPC calls failed after exhausting their deadline/attempt budget");
  static obs::Counter& stale_total = obs::Registry::global().counter(
      "cricket_rpc_stale_replies_total", {},
      "Replies for an older xid dropped while awaiting a retried call");
  static obs::Counter& migrating_total = obs::Registry::global().counter(
      "cricket_rpc_migrating_redirects_total", {},
      "kMigrating rejections absorbed by the retry layer (call re-sent "
      "through the reconnect factory)");

  const RetryPolicy& policy = options_.retry;
  const bool retryable =
      policy.assume_at_most_once ||
      std::find(policy.idempotent_procs.begin(), policy.idempotent_procs.end(),
                call.proc) != policy.idempotent_procs.end();

  const obs::ScopedXid trace_xid(call.xid);
  std::vector<std::uint8_t> record;
  {
    obs::Span span(obs::Layer::kClientSerialize);
    record = encode_call(call);
    span.set_arg(record.size());
  }
  ++stats_.calls;

  const auto start = Clock::now();
  const auto hard_deadline =
      policy.deadline > std::chrono::nanoseconds::zero()
          ? start + policy.deadline
          : Clock::time_point::max();

  auto give_up = [&](const char* why) -> RpcError {
    ++stats_.deadline_exceeded;
    deadline_total.inc();
    return RpcError(RpcError::Kind::kDeadlineExceeded,
                    "proc " + std::to_string(call.proc) + " xid " +
                        std::to_string(call.xid) + ": " + why);
  };

  for (std::uint32_t attempt = 1;; ++attempt) {
    bool sent = false;
    bool migrating = false;
    try {
      obs::Span span(obs::Layer::kChanSend, nullptr, record.size());
      writer_.write_record(record);
      sent = true;
      stats_.bytes_sent += record.size();

      auto timeout = policy.attempt_timeout;
      if (hard_deadline != Clock::time_point::max()) {
        const auto remaining = hard_deadline - Clock::now();
        if (remaining <= std::chrono::nanoseconds::zero())
          throw give_up("deadline exceeded before reply");
        timeout = std::min<std::chrono::nanoseconds>(timeout, remaining);
      }
      (void)transport_->set_recv_timeout(timeout);

      const obs::Span wait_span(obs::Layer::kClientWait);
      std::vector<std::uint8_t> reply_record;
      for (;;) {
        if (!reader_.read_record(reply_record))
          throw TransportError("connection closed while awaiting reply");
        stats_.bytes_received += reply_record.size();
        ReplyMsg reply;
        try {
          reply = decode_reply(reply_record);
        } catch (const RpcFormatError&) {
          // Corrupted-in-flight reply (framing intact, content garbage —
          // what a checksum failure looks like above the record layer).
          // Drop it; the attempt timeout will re-send if ours was the
          // victim.
          continue;
        } catch (const xdr::XdrError&) {
          continue;
        }
        if (reply.xid == call.xid) {
          (void)transport_->set_recv_timeout(std::chrono::nanoseconds::zero());
          auto error = reply_error(reply);
          if (!error) return std::move(reply.results);
          if (error->kind() != RpcError::Kind::kMigrating) throw *error;
          // The tenant is frozen for live migration; the call never
          // executed, so re-sending the same xid is safe regardless of
          // idempotency. Reconnect through the factory so the re-send
          // follows the migration's redirect once it flips, then fall to
          // the backoff/retry decision below.
          ++stats_.migrating_redirects;
          migrating_total.inc();
          migrating = true;
          (void)try_reconnect();
          break;
        }
        // A slow answer to an attempt we already gave up on (or to an
        // earlier call whose retry was answered from the server's duplicate
        // cache). Drain it and keep waiting for ours.
        if (static_cast<std::int32_t>(reply.xid - call.xid) < 0) {
          ++stats_.stale_replies;
          stale_total.inc();
          continue;
        }
        throw RpcError(RpcError::Kind::kBadReply,
                       "reply xid from the future: expected " +
                           std::to_string(call.xid) + ", got " +
                           std::to_string(reply.xid));
      }
    } catch (const TransportTimeout&) {
      // Attempt expired; fall through to the retry decision.
    } catch (const TransportError&) {
      // Connection-level failure. A fresh transport lets the next attempt
      // re-send the same xid; the server's duplicate cache keeps a
      // possibly-executed call from running twice.
      if (!try_reconnect()) {
        if (sent && retryable && attempt < policy.max_attempts &&
            options_.reconnect) {
          // Reconnect refused (server briefly down): treat like a timeout
          // and let backoff give it time to come back.
        } else {
          (void)transport_->set_recv_timeout(std::chrono::nanoseconds::zero());
          throw;
        }
      }
    }

    (void)transport_->set_recv_timeout(std::chrono::nanoseconds::zero());
    // A migrating rejection is retryable even for non-idempotent procedures:
    // admission refused the call before decode, so it has no side effects.
    if (!retryable && !migrating)
      throw give_up("non-idempotent procedure, not retrying");
    if (attempt >= policy.max_attempts) throw give_up("attempts exhausted");

    const auto pause = backoff_for(policy, call.xid, attempt);
    if (Clock::now() + pause >= hard_deadline)
      throw give_up("deadline exceeded during backoff");
    ++stats_.retries;
    retries_total.inc();
    std::this_thread::sleep_for(pause);
  }
}

}  // namespace cricket::rpc
