#include "rpc/client.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/rng.hpp"

namespace cricket::rpc {

namespace {

/// Each client counter is registered (and counted) at exactly one site.
obs::Counter& counter(const char* name, const char* help) {
  return obs::Registry::global().counter(name, {}, help);
}

/// Depth 1 reads exactly; above it the client reads ahead, so one recv
/// covers many replies.
std::size_t read_ahead(const ClientOptions& options) {
  return options.max_outstanding > 1 ? RecordReader::kPipelinedReadAhead : 0;
}

/// The xid: the first word of every reply, readable before decode.
std::uint32_t peek_xid(std::span<const std::uint8_t> record) {
  return (std::uint32_t{record[0]} << 24) | (std::uint32_t{record[1]} << 16) |
         (std::uint32_t{record[2]} << 8) | std::uint32_t{record[3]};
}

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
      writer_(*transport_),
      reader_(*transport_, RecordReader::kDefaultMaxRecord,
              read_ahead(options)),
      prog_(prog),
      vers_(vers),
      options_(std::move(options)),
      next_xid_(options_.initial_xid) {
  if (options_.max_outstanding <= 1) return;
  batcher_ = std::make_unique<CallBatcher>(*transport_, options_.batch);
  self_ = std::shared_ptr<RpcClient>(this, [](RpcClient*) {});
}

RpcClient::~RpcClient() {
  // Push out anything still buffered and half-close, so the server ends the
  // session. Nothing reads the replies to calls still pending: fail them.
  try {
    flush();
  } catch (const TransportError&) {
    // Dead already.
  }
  try {
    transport_->shutdown();
  } catch (...) {  // destructor must not throw
  }
  sim::MutexLock lock(mu_);
  fail_all_locked(
      [] { return TransportError("client destroyed with the call pending"); });
}

void RpcClient::set_credential(OpaqueAuth cred) {
  sim::MutexLock lock(mu_);
  cred_ = std::move(cred);
}

ReplyFuture RpcClient::call_raw_async(std::uint32_t proc,
                                      std::span<const std::uint8_t> args) {
  CallMsg call;
  call.prog = prog_;
  call.vers = vers_;
  call.proc = proc;
  call.args.assign(args.begin(), args.end());

  ReplyPromise promise;
  ReplyFuture future(promise.state());
  // Above depth 1 nothing reads in the background: a caller waiting on
  // the future drives the client.
  if (batcher_) {
    promise.state()->drive = [weak = std::weak_ptr<RpcClient>(self_)] {
      const auto client = weak.lock();
      if (!client) return false;
      if (client->batcher_->buffered() > 0) {
        static obs::Counter& unflushed =
            counter("cricket_batch_unflushed_waits_total",
                    "Futures blocked on while calls sat unflushed in the "
                    "batcher (caller should flush first)");
        unflushed.inc();
      }
      return client->pump();
    };
  }
  const RetryPolicy& policy = options_.retry;
  {
    sim::MutexLock lock(mu_);
    // A full window: read replies until one frees a slot.
    while (batcher_ && !dead_ &&
           pending_.size() >= options_.max_outstanding) {
      lock.unlock();
      (void)pump();
      lock.lock();
    }
    if (dead_) {
      promise.set_error(std::make_exception_ptr(
          TransportError("client closed after a connection failure")));
      return future;
    }
    call.xid = next_xid_++;
    call.cred = cred_;
    PendingCall entry;
    entry.promise = promise;
    entry.proc = proc;
    // The reply pre-flight bound is decided now: a reply names only its xid.
    if (const auto* b = find_proc_bounds(options_.bounds, prog_, vers_, proc);
        b != nullptr && b->result_max != kUnboundedWireSize) {
      entry.max_reply_bytes = b->result_max + kReplyHeaderMax;
    }
    entry.retryable =
        policy.assume_at_most_once ||
        std::find(policy.idempotent_procs.begin(),
                  policy.idempotent_procs.end(),
                  proc) != policy.idempotent_procs.end();
    if (policy.enabled) {
      const auto now = Clock::now();
      if (policy.deadline > std::chrono::nanoseconds::zero())
        entry.hard_deadline = now + policy.deadline;
      entry.due = std::min(now + policy.attempt_timeout, entry.hard_deadline);
    }
    pending_.emplace(call.xid, std::move(entry));
    ++stats_.calls;
    stats_.max_in_flight = std::max(
        stats_.max_in_flight, static_cast<std::uint32_t>(pending_.size()));
  }

  const obs::ScopedXid trace_xid(call.xid);
  std::vector<std::uint8_t> record;
  {
    obs::Span span(obs::Layer::kClientSerialize);
    record = encode_call(call);
    span.set_arg(record.size());
  }
  if (policy.enabled) {
    sim::MutexLock lock(mu_);
    pending_.at(call.xid).record = record;
  }
  send(record);
  if (!batcher_) await(future);
  return future;
}

void RpcClient::send(std::span<const std::uint8_t> record) {
  try {
    const obs::Span span(obs::Layer::kChanSend, nullptr, record.size());
    if (batcher_) {
      batcher_->append(record);
    } else {
      writer_.write_record(record);
    }
    sim::MutexLock lock(mu_);
    stats_.bytes_sent += record.size();
  } catch (const TransportError& e) {
    // Above depth 1 the next read finds the dead connection and repairs it.
    if (batcher_) return;
    sim::MutexLock lock(mu_);
    (void)reconnect_locked(Clock::now(), e.what());
  }
}

void RpcClient::await(const ReplyFuture& future) {
  const obs::Span wait_span(obs::Layer::kClientWait);
  while (!future.ready() && step()) {
  }
  if (options_.retry.enabled)
    (void)transport_->set_recv_timeout(std::chrono::nanoseconds::zero());
}

bool RpcClient::pump() {
  try {
    flush();
  } catch (const TransportError&) {
    // The next read finds the dead connection.
  }
  return step();
}

bool RpcClient::step() {
  const RetryPolicy& policy = options_.retry;
  if (policy.enabled) {
    const auto now = Clock::now();
    Clock::time_point due;
    std::vector<std::vector<std::uint8_t>> resend;
    {
      sim::MutexLock lock(mu_);
      resend = expire_locked(now, due);
      // The last pending call just failed: nothing to read for.
      if (pending_.empty()) return true;
    }
    if (!resend.empty()) {
      // Same xid again: the server's duplicate-request cache answers
      // repeats. A failed send may have moved the timers: step again.
      for (const auto& r : resend) send(r);
      try {
        flush();
      } catch (const TransportError&) {
        // The next read finds the dead connection.
      }
      return true;
    }
    // A call issued during the wait is due no sooner than this wait after
    // it, so waking by then keeps its timer on time too.
    auto wait = policy.attempt_timeout;
    if (policy.deadline > std::chrono::nanoseconds::zero())
      wait = std::min(wait, policy.deadline);
    if (due != Clock::time_point::max())
      wait = std::min<std::chrono::nanoseconds>(wait, due - now);
    (void)transport_->set_recv_timeout(
        std::max<std::chrono::nanoseconds>(wait, std::chrono::microseconds(1)));
  }
  std::string reason = "connection closed by peer";
  try {
    if (reader_.read_record(record_)) {
      // The server sends coalesced replies in one write: match all of them
      // that already arrived, so a full window frees every slot they answer.
      do {
        on_record(record_);
      } while (reader_.has_record() && reader_.read_record(record_));
      return true;
    }
  } catch (const TransportTimeout&) {
    return true;  // a timer is due: the next step fires it
  } catch (const TransportError& e) {
    reason = e.what();
  }
  sim::MutexLock lock(mu_);
  return reconnect_locked(Clock::now(), reason);
}

void RpcClient::on_record(std::span<const std::uint8_t> record) {
  const auto now = Clock::now();
  sim::MutexLock lock(mu_);
  stats_.bytes_received += record.size();
  // Pre-flight: the record is matched to its call, and to the call's proven
  // result bound, before decode_reply parses or allocates anything.
  const auto it = record.size() >= 4 ? pending_.find(peek_xid(record))
                                     : pending_.end();
  if (it != pending_.end() && record.size() > it->second.max_reply_bytes) {
    ++stats_.preflight_rejected;
    fail_locked(it, std::make_exception_ptr(RpcError(
                        RpcError::Kind::kBadReply,
                        "reply of " + std::to_string(record.size()) +
                            " bytes exceeds the procedure's proven "
                            "wire-size bound")));
    return;
  }
  ReplyMsg reply;
  try {
    reply = decode_reply(record);
  } catch (const std::exception&) {
    // Framing intact, content garbage (a checksum failure, seen above the
    // record layer). A call with retry budget left re-sends on timeout.
    if (it == pending_.end()) {
      ++stats_.unmatched;
    } else if (retry_refusal(it->second, it->first, now, false) != nullptr) {
      fail_locked(it, std::make_exception_ptr(RpcError(
                          RpcError::Kind::kBadReply,
                          "undecodable reply for xid " +
                              std::to_string(it->first))));
    }
    return;
  }
  if (it == pending_.end()) {
    if (reply.xid - options_.initial_xid < next_xid_ - options_.initial_xid) {
      // A slow answer to an attempt already re-sent, or to a call already
      // failed: drop it.
      ++stats_.stale_replies;
      static obs::Counter& stale = counter(
          "cricket_rpc_stale_replies_total",
          "Replies for an older xid dropped while awaiting a retried call");
      stale.inc();
      return;
    }
    // A reply to an xid never issued: the stream can not be trusted to
    // answer the calls still pending.
    const std::string what = "reply for xid " + std::to_string(reply.xid) +
                             ", never issued (last issued " +
                             std::to_string(next_xid_ - 1) + ")";
    fail_all_locked([&] { return RpcError(RpcError::Kind::kBadReply, what); });
    return;
  }
  ++stats_.replies;
  // Carries the call's xid, so a viewer ties the reply to its call.
  const obs::ScopedXid trace_xid(reply.xid);
  obs::instant(obs::Layer::kChanReply, nullptr, record.size());
  auto error = reply_error(reply);
  if (!error) {
    it->second.promise.set_value(std::move(reply.results));
    pending_.erase(it);
    return;
  }
  if (error->kind() == RpcError::Kind::kMigrating &&
      retry_refusal(it->second, it->first, now, true) == nullptr) {
    // The tenant is frozen for live migration and the call never executed:
    // re-open through the factory, so the re-send after the backoff follows
    // the migration's redirect once it flips.
    ++stats_.migrating_redirects;
    static obs::Counter& redirects = counter(
        "cricket_rpc_migrating_redirects_total",
        "kMigrating rejections absorbed by the retry layer (call re-sent "
        "through the reconnect factory)");
    redirects.inc();
    (void)retry_or_fail_locked(it, now, /*migrating=*/true);
    if (options_.reconnect) (void)reconnect_locked(now, "migration redirect");
    return;
  }
  fail_locked(it, std::make_exception_ptr(std::move(*error)));
}

std::vector<std::vector<std::uint8_t>> RpcClient::expire_locked(
    Clock::time_point now, Clock::time_point& next_due) {
  std::vector<std::vector<std::uint8_t>> resend;
  for (auto it = pending_.begin(); it != pending_.end();) {
    auto& call = it->second;
    if (call.due > now) {
      ++it;
    } else if (!call.backing_off) {
      it = retry_or_fail_locked(it, now);  // the attempt timed out
    } else {
      call.backing_off = false;
      ++call.attempts;
      call.due = std::min(now + options_.retry.attempt_timeout,
                          call.hard_deadline);
      if (!call.record.empty()) resend.push_back(call.record);
      ++it;
    }
  }
  next_due = Clock::time_point::max();
  for (const auto& [xid, call] : pending_)
    next_due = std::min(next_due, call.due);
  return resend;
}

const char* RpcClient::retry_refusal(const PendingCall& call,
                                     std::uint32_t xid, Clock::time_point now,
                                     bool migrating) const {
  const RetryPolicy& policy = options_.retry;
  if (!policy.enabled) return "retry disabled";
  // A migrating refusal came at admission, before the call could run.
  if (!call.retryable && !migrating)
    return "non-idempotent procedure, not retrying";
  if (call.attempts >= policy.max_attempts) return "attempts exhausted";
  if (now + backoff_for(policy, xid, call.attempts) >= call.hard_deadline)
    return "deadline exceeded during backoff";
  return nullptr;
}

RpcClient::Pending::iterator RpcClient::retry_or_fail_locked(
    Pending::iterator it, Clock::time_point now, bool migrating) {
  auto& call = it->second;
  if (const char* why = retry_refusal(call, it->first, now, migrating)) {
    ++stats_.deadline_exceeded;
    static obs::Counter& exhausted = counter(
        "cricket_rpc_deadline_exceeded_total",
        "RPC calls failed after exhausting their deadline/attempt budget");
    exhausted.inc();
    return fail_locked(
        it, std::make_exception_ptr(RpcError(
                RpcError::Kind::kDeadlineExceeded,
                "proc " + std::to_string(call.proc) + " xid " +
                    std::to_string(it->first) + ": " + why)));
  }
  call.backing_off = true;
  call.due = now + backoff_for(options_.retry, it->first, call.attempts);
  ++stats_.retries;
  static obs::Counter& retries = counter(
      "cricket_rpc_retries_total",
      "RPC call attempts beyond the first (timeout or transport failure)");
  retries.inc();
  return std::next(it);
}

bool RpcClient::reconnect_locked(Clock::time_point now,
                                 const std::string& reason) {
  std::unique_ptr<Transport> fresh;
  if (options_.retry.enabled && options_.reconnect) {
    try {
      fresh = options_.reconnect();
    } catch (const std::exception&) {
      // Server unreachable: the connection can not be repaired.
    }
  }
  if (fresh == nullptr) {
    dead_ = true;
    const std::string what = "connection failed with calls in flight: " + reason;
    fail_all_locked([&] { return TransportError(what); });
    return false;
  }
  if (batcher_) batcher_->rebind(*fresh);
  transport_ = std::move(fresh);
  writer_ = RecordWriter(*transport_);
  reader_ = RecordReader(*transport_, RecordReader::kDefaultMaxRecord,
                         read_ahead(options_));
  ++stats_.reconnects;
  static obs::Counter& reconnects =
      counter("cricket_rpc_reconnects_total",
              "Client transport reconnects after connection failure");
  reconnects.inc();
  // Calls with an attempt on the old connection lost it; the server's
  // duplicate-request cache keeps a re-sent executed call from re-running.
  for (auto it = pending_.begin(); it != pending_.end();)
    it = it->second.backing_off ? std::next(it)
                                : retry_or_fail_locked(it, now);
  return true;
}

RpcClient::Pending::iterator RpcClient::fail_locked(Pending::iterator it,
                                                    std::exception_ptr error) {
  ++stats_.failed;
  it->second.promise.set_error(std::move(error));
  return pending_.erase(it);
}

void RpcClient::flush() {
  if (batcher_) batcher_->flush();
}

void RpcClient::drain() {
  while (outstanding() > 0 && pump()) {
  }
}

std::uint32_t RpcClient::outstanding() const {
  sim::MutexLock lock(mu_);
  return static_cast<std::uint32_t>(pending_.size());
}

ClientStats RpcClient::stats() const {
  sim::MutexLock lock(mu_);
  return stats_;
}

}  // namespace cricket::rpc
