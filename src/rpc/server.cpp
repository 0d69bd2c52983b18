#include "rpc/server.hpp"

#include "obs/trace.hpp"
#include "xdr/taint.hpp"

namespace cricket::rpc {

void ServiceRegistry::register_proc(std::uint32_t prog, std::uint32_t vers,
                                    std::uint32_t proc, ProcHandler handler) {
  handlers_[Key{prog, vers, proc}] = std::move(handler);
}

void ServiceRegistry::set_bounds(std::span<const ProcWireBounds> table) {
  for (const auto& b : table) bounds_[Key{b.prog, b.vers, b.proc}] = b;
}

std::optional<ReplyMsg> ServiceRegistry::preflight(
    std::span<const std::uint8_t> record) const {
  if (bounds_.empty()) return std::nullopt;
  CallHeader header;
  try {
    header = peek_call_header(record);
  } catch (const std::exception&) {
    // Unparseable header: let the full decode path classify (and drop) it.
    return std::nullopt;
  }
  const auto it = bounds_.find(Key{header.prog, header.vers, header.proc});
  if (it == bounds_.end() || it->second.args_max == kUnboundedWireSize)
    return std::nullopt;
  const std::uint64_t args_len = record.size() - header.body_offset;
  if (args_len >= it->second.args_min && args_len <= it->second.args_max)
    return std::nullopt;
  static obs::Counter& rejected = obs::Registry::global().counter(
      "cricket_rpc_preflight_rejected_total", {},
      "Records rejected by wire-size bounds pre-flight before decode");
  rejected.inc();
  ReplyMsg reply;
  reply.xid = header.xid;
  reply.stat = ReplyStat::kAccepted;
  reply.accept_stat = AcceptStat::kGarbageArgs;
  return reply;
}

std::optional<ReplyMsg> ServiceRegistry::admit(
    std::span<const std::uint8_t> record) const {
  if (!admission_) return std::nullopt;
  return admission_->admit(record);
}

void ServiceRegistry::admission_complete() const {
  if (admission_) admission_->complete();
}

void ServiceRegistry::enable_duplicate_cache(DrcOptions options) {
  drc_ = std::make_unique<DrcState>();
  drc_->options = options;
}

DrcStats ServiceRegistry::drc_stats() const {
  if (!drc_) return {};
  sim::MutexLock lock(drc_->mu);
  return drc_->stats;
}

void ServiceRegistry::DrcState::evict_locked() {
  while (!fifo.empty() &&
         (cache.size() > options.max_entries || bytes > options.max_bytes)) {
    const auto it = cache.find(fifo.front());
    fifo.pop_front();
    if (it == cache.end()) continue;
    bytes -= it->second.bytes;
    cache.erase(it);
    ++stats.evictions;
  }
}

/// FNV-1a over the credential (flavor + body): stable client identity for
/// the duplicate-request cache without parsing any particular auth scheme.
std::uint64_t drc_client_id(const OpaqueAuth& cred) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ull;
  const auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 0x100000001B3ull;
  };
  const auto flavor = static_cast<std::uint32_t>(cred.flavor);
  for (int i = 0; i < 4; ++i) mix(static_cast<std::uint8_t>(flavor >> (8 * i)));
  for (const std::uint8_t byte : cred.body) mix(byte);
  return h;
}

std::vector<DrcExportEntry> ServiceRegistry::export_drc(
    std::optional<std::uint64_t> client) const {
  std::vector<DrcExportEntry> out;
  if (!drc_) return out;
  sim::MutexLock lock(drc_->mu);
  for (const auto& [key, entry] : drc_->cache) {
    if (client.has_value() && key.client != *client) continue;
    out.push_back(DrcExportEntry{key.client, key.xid,
                                 encode_reply(entry.reply)});
  }
  return out;
}

void ServiceRegistry::import_drc(const std::vector<DrcExportEntry>& entries) {
  if (!drc_)
    throw std::logic_error(
        "import_drc: duplicate-request cache not enabled on this registry");
  DrcState& drc = *drc_;
  sim::MutexLock lock(drc.mu);
  for (const auto& e : entries) {
    ReplyMsg reply = decode_reply(e.reply);
    if (reply.xid != e.xid)
      throw RpcFormatError("imported DRC entry xid does not match its reply");
    const DrcKey key{e.client, e.xid};
    const std::size_t bytes = reply.results.size() + 64;  // + header estimate
    if (drc.cache.emplace(key, DrcEntry{std::move(reply), bytes}).second) {
      drc.fifo.push_back(key);
      drc.bytes += bytes;
      ++drc.stats.insertions;
      drc.evict_locked();
    }
  }
  drc.cv.notify_all();
}

ReplyMsg ServiceRegistry::dispatch(const CallMsg& call) const {
  // Only handled procedures go through the cache: error classifications and
  // the implicit null procedure are side-effect free, and caching them would
  // let misses crowd out replies that actually protect against re-execution.
  if (!drc_ ||
      handlers_.find(Key{call.prog, call.vers, call.proc}) == handlers_.end())
    return execute(call);

  static obs::Counter& drc_hits = obs::Registry::global().counter(
      "cricket_drc_hits_total", {},
      "Retried calls answered from the duplicate-request cache");

  DrcState& drc = *drc_;
  const DrcKey key{drc_client_id(call.cred), call.xid};
  {
    sim::MutexLock lock(drc.mu);
    for (;;) {
      const auto it = drc.cache.find(key);
      if (it != drc.cache.end()) {
        ++drc.stats.hits;
        drc_hits.inc();
        return it->second.reply;
      }
      if (drc.in_flight.find(key) == drc.in_flight.end()) break;
      // The original attempt is still executing on another connection. Wait
      // for its reply rather than racing a second execution of the same call.
      ++drc.stats.in_flight_waits;
      drc.cv.wait(drc.mu);
    }
    drc.in_flight.insert(key);
  }

  // Handler runs outside the lock — CUDA-side work can be long.
  ReplyMsg reply = execute(call);

  {
    sim::MutexLock lock(drc.mu);
    drc.in_flight.erase(key);
    const std::size_t bytes = reply.results.size() + 64;  // + header estimate
    if (drc.cache.emplace(key, DrcEntry{reply, bytes}).second) {
      drc.fifo.push_back(key);
      drc.bytes += bytes;
      ++drc.stats.insertions;
      drc.evict_locked();
    }
    drc.cv.notify_all();
  }
  return reply;
}

ReplyMsg ServiceRegistry::execute(const CallMsg& call) const {
  ReplyMsg reply;
  reply.xid = call.xid;
  reply.stat = ReplyStat::kAccepted;

  // Null procedure: always answered, per RFC 5531 convention, as long as the
  // program exists at all.
  const auto it = handlers_.find(Key{call.prog, call.vers, call.proc});
  if (it != handlers_.end()) {
    try {
      reply.results = it->second(call.args);
      reply.accept_stat = AcceptStat::kSuccess;
    } catch (const GarbageArgsError&) {
      reply.accept_stat = AcceptStat::kGarbageArgs;
    } catch (const xdr::TaintError&) {
      // A wire-derived scalar failed validate() inside the handler: the
      // arguments decoded but were hostile, which is the same class of
      // reply as a malformed body — not a server fault.
      reply.accept_stat = AcceptStat::kGarbageArgs;
    } catch (const std::exception&) {
      reply.accept_stat = AcceptStat::kSystemErr;
    }
    return reply;
  }

  // Classify the miss: unknown program / known program wrong version /
  // unknown procedure / implicit null procedure.
  std::uint32_t lo = UINT32_MAX, hi = 0;
  bool prog_known = false, vers_known = false;
  for (const auto& [key, _] : handlers_) {
    if (key.prog != call.prog) continue;
    prog_known = true;
    lo = std::min(lo, key.vers);
    hi = std::max(hi, key.vers);
    if (key.vers == call.vers) vers_known = true;
  }
  if (!prog_known) {
    reply.accept_stat = AcceptStat::kProgUnavail;
  } else if (!vers_known) {
    reply.accept_stat = AcceptStat::kProgMismatch;
    reply.mismatch = MismatchInfo{lo, hi};
  } else if (call.proc == 0) {
    reply.accept_stat = AcceptStat::kSuccess;  // null proc, void result
  } else {
    reply.accept_stat = AcceptStat::kProcUnavail;
  }
  return reply;
}

namespace {

/// What a record asks for: a reply without dispatch, a call, or neither.
struct Intake {
  std::optional<ReplyMsg> rejected;
  std::optional<CallMsg> call;
};

/// Pipelined mode sends the coalesced replies once this many bytes wait.
constexpr std::size_t kMaxUnsentReplyBytes = 64 * 1024;

/// The wire-size pre-flight (GARBAGE_ARGS for out-of-bounds lengths) and
/// tenant admission (typed quota/auth/migrating rejections) answer without
/// ever decoding; anything admitted is decoded. A record that does not
/// decode is dropped — a server cannot reply without an xid it trusts — and
/// its admission slot released.
Intake intake(const ServiceRegistry& registry,
              std::span<const std::uint8_t> record) {
  if (auto rejected = registry.preflight(record))
    return {std::move(rejected), std::nullopt};
  if (auto rejected = registry.admit(record))
    return {std::move(rejected), std::nullopt};
  try {
    return {std::nullopt, decode_call(record)};
  } catch (const std::exception&) {
    registry.admission_complete();
    return {};
  }
}

}  // namespace

void serve_transport(const ServiceRegistry& registry, Transport& transport,
                     const ServeOptions& options) {
  const bool pipelined = options.workers != 0;
  RecordReader reader(transport, RecordReader::kDefaultMaxRecord,
                      pipelined ? RecordReader::kPipelinedReadAhead : 0);
  RecordWriter writer(transport);
  std::vector<std::uint8_t> record;
  std::vector<std::uint8_t> unsent;  // pipelined: coalesced reply records
  try {
    for (;;) {
      // Coalesced replies leave before a read could block on the peer.
      if (!unsent.empty() && (unsent.size() >= kMaxUnsentReplyBytes ||
                              !reader.has_record())) {
        obs::Span span(obs::Layer::kServerReply, nullptr, unsent.size());
        transport.send(unsent);
        unsent.clear();
      }
      if (!reader.read_record(record)) break;  // clean EOF
      Intake step = intake(registry, record);
      if (!step.rejected && !step.call) continue;
      ReplyMsg reply;
      if (step.rejected) {
        reply = std::move(*step.rejected);
      } else {
        {
          const obs::ScopedXid trace_xid(step.call->xid);
          obs::Span span(obs::Layer::kServerDispatch, nullptr,
                         step.call->args.size());
          reply = registry.dispatch(*step.call);
        }
        registry.admission_complete();
      }
      const obs::ScopedXid trace_xid(reply.xid);
      if (pipelined) {
        append_record_marked(unsent, encode_reply(reply));
      } else {
        obs::Span span(obs::Layer::kServerReply);
        writer.write_record(encode_reply(reply));
      }
    }
  } catch (const TransportError&) {
    // The peer vanished mid-record or stopped reading: nothing to reply to.
  }
  // Half-close our write side so a client blocked on recv between replies
  // (a pipelined client waiting on its window) observes end-of-stream.
  try {
    transport.shutdown();
  } catch (const TransportError&) {
  }
}

void ConnectionThreads::spawn(std::function<void()> serve) {
  connections_.remove_if([](Connection& c) {
    if (!c.done.load()) return false;
    c.thread.join();
    return true;
  });
  Connection& c = connections_.emplace_back();
  c.thread = std::thread([&done = c.done, serve = std::move(serve)] {
    serve();
    done.store(true);
  });
}

void ConnectionThreads::join_all() {
  for (auto& c : connections_) c.thread.join();
  connections_.clear();
}

TcpRpcServer::TcpRpcServer(const ServiceRegistry& registry,
                           std::unique_ptr<TcpListener> listener,
                           ServeOptions options)
    : registry_(&registry),
      listener_(std::move(listener)),
      options_(options) {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

TcpRpcServer::~TcpRpcServer() { stop(); }

std::uint16_t TcpRpcServer::port() const noexcept { return listener_->port(); }

void TcpRpcServer::accept_loop() {
  for (;;) {
    auto conn = listener_->accept();
    if (!conn || stopping_.load()) return;
    sim::MutexLock lock(mu_);
    connections_.spawn(
        [this, c = std::shared_ptr<TcpTransport>(std::move(conn))] {
          serve_transport(*registry_, *c, options_);
        });
  }
}

void TcpRpcServer::stop() {
  if (stopping_.exchange(true)) return;
  listener_->close();
  if (accept_thread_.joinable()) accept_thread_.join();
  sim::MutexLock lock(mu_);
  connections_.join_all();
}

}  // namespace cricket::rpc
