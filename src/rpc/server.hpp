// ONC RPC server runtime: service registry + dispatch + connection serving.
//
// Mirrors the server side of the paper's setup, where `rpcgen`-generated C
// dispatch code routes each procedure number to a CUDA-executing handler.
// Here the cricket module registers its handlers into a ServiceRegistry and
// either serves a single in-process transport (simulated environments) or a
// real TCP listener with one thread per connection. Each connection runs
// read → dispatch → reply on that thread, one call at a time (§4.2).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "rpc/record.hpp"
#include "rpc/rpc_msg.hpp"
#include "rpc/transport.hpp"
#include "rpc/wire_bounds.hpp"
#include "sim/annotations.hpp"
#include "xdr/xdr.hpp"

namespace cricket::rpc {

/// Thrown by handlers that could not decode their arguments; mapped to
/// GARBAGE_ARGS. Any other handler exception maps to SYSTEM_ERR.
class GarbageArgsError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A procedure handler: takes XDR-encoded args, returns XDR-encoded results.
using ProcHandler =
    std::function<std::vector<std::uint8_t>(std::span<const std::uint8_t>)>;

/// Duplicate-request cache sizing. FIFO eviction: retries arrive within the
/// client's backoff window (milliseconds), so recency-ordering buys nothing
/// over insertion-ordering here and FIFO keeps eviction O(1).
struct DrcOptions {
  std::size_t max_entries = 1024;
  /// Cap on cached reply payload bytes (a memcpy_d2h reply can be large).
  std::size_t max_bytes = 16u << 20;
};

struct DrcStats {
  std::uint64_t hits = 0;          // retried call answered from cache
  std::uint64_t in_flight_waits = 0;  // duplicate arrived mid-execution
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
};

/// One duplicate-request-cache entry in portable form. Live migration ships
/// these to the target server so a retry of a call that already executed on
/// the source is answered from cache there instead of re-executing.
struct DrcExportEntry {
  std::uint64_t client = 0;  // drc_client_id of the caller's credential
  std::uint32_t xid = 0;
  std::vector<std::uint8_t> reply;  // encode_reply() bytes of the cached reply
};

/// The duplicate-request cache's client identity: FNV-1a over the credential
/// (flavor + body). Exposed so migration can export one tenant's entries by
/// hashing the credentials of its sessions.
[[nodiscard]] std::uint64_t drc_client_id(const OpaqueAuth& cred) noexcept;

/// Pre-decode admission control seam (multi-tenant servers). The controller
/// sees every structurally valid record after the wire-size pre-flight and
/// before any argument decode or dispatch work; returning a reply
/// short-circuits the call (quota rejection, auth denial) through the
/// normal reply path, so the connection always survives a rejection.
/// complete() fires exactly once per admitted record once its reply has
/// been produced (or the record proved undecodable), releasing
/// outstanding-call accounting. Both run on the connection's serving
/// thread; state shared with other connections still needs its own locks.
class AdmissionController {
 public:
  virtual ~AdmissionController() = default;
  [[nodiscard]] virtual std::optional<ReplyMsg> admit(
      std::span<const std::uint8_t> record) = 0;
  virtual void complete() = 0;
};

/// Maps (program, version, procedure) to handlers; computes RFC 5531 error
/// statuses for unknown programs/versions/procedures. Thread-safe after
/// registration completes (registration itself is not concurrent with
/// dispatch).
class ServiceRegistry {
 public:
  void register_proc(std::uint32_t prog, std::uint32_t vers,
                     std::uint32_t proc, ProcHandler handler);

  /// Convenience: typed handler taking decoded arguments.
  /// `fn` is invoked as `Res fn(Args...)` with args decoded in order.
  template <typename Res, typename... Args, typename Fn>
  void register_typed(std::uint32_t prog, std::uint32_t vers,
                      std::uint32_t proc, Fn fn) {
    register_proc(prog, vers, proc,
                  [fn = std::move(fn)](std::span<const std::uint8_t> in) {
                    // Counted so tests can prove pre-flight rejections never
                    // reach argument decoding.
                    static obs::Counter& decode_attempts =
                        obs::Registry::global().counter(
                            "cricket_rpc_args_decode_total", {},
                            "Typed argument decode attempts");
                    decode_attempts.inc();
                    xdr::Decoder dec(in);
                    std::tuple<std::decay_t<Args>...> args;
                    try {
                      std::apply([&](auto&... a) { (xdr_decode(dec, a), ...); },
                                 args);
                      dec.expect_exhausted();
                    } catch (const xdr::XdrError& e) {
                      throw GarbageArgsError(e.what());
                    }
                    xdr::Encoder enc;
                    if constexpr (std::is_void_v<Res>) {
                      std::apply(fn, args);
                    } else {
                      xdr_encode(enc, std::apply(fn, args));
                    }
                    return enc.take();
                  });
  }

  /// Installs rpclgen-generated wire-size bounds (e.g.
  /// cricket::proto::bounds::kProcBounds). Entries are copied; like
  /// register_proc this must complete before dispatch starts.
  void set_bounds(std::span<const ProcWireBounds> table);

  /// Decode pre-flight: peeks the call header of a raw record and checks
  /// the argument length against the addressed procedure's proven
  /// [min, max] interval, before any allocation or xdr_decode. Returns a
  /// GARBAGE_ARGS reply if the record can not be a valid call to that
  /// procedure, nullopt to proceed with the full decode (including when
  /// the header is unparseable or no bounds are installed — those paths
  /// keep their existing error classification).
  [[nodiscard]] std::optional<ReplyMsg> preflight(
      std::span<const std::uint8_t> record) const;

  /// Turns on at-most-once semantics: replies to handled procedures are
  /// cached by (client id, xid), and a retried call — same client, same xid
  /// — is answered from cache instead of re-executing the handler. A
  /// duplicate that lands while the original is still executing waits for
  /// that execution rather than starting a second one. The client id is a
  /// hash of the call credential, so clients wanting isolation on a shared
  /// registry must present distinct credentials (e.g. AUTH_SYS machinename).
  /// Like register_proc, must be called before dispatch starts.
  void enable_duplicate_cache(DrcOptions options = {});
  [[nodiscard]] bool duplicate_cache_enabled() const noexcept {
    return drc_ != nullptr;
  }
  [[nodiscard]] DrcStats drc_stats() const;

  /// Snapshots cached replies for migration, optionally restricted to one
  /// client identity (drc_client_id of a credential). Empty when the cache
  /// is disabled. In-flight executions are not exported — callers quiesce
  /// (drain outstanding calls) before snapshotting.
  [[nodiscard]] std::vector<DrcExportEntry> export_drc(
      std::optional<std::uint64_t> client = std::nullopt) const;

  /// Seeds the cache with migrated entries. Each reply is re-decoded (a
  /// hostile blob throws RpcFormatError/XdrError and nothing is inserted
  /// past it); entries already present are kept, not overwritten. Throws
  /// std::logic_error when the cache is disabled — silently dropping the
  /// entries would forfeit at-most-once for the migrated tenant.
  void import_drc(const std::vector<DrcExportEntry>& entries);

  /// Installs a pre-decode admission controller (non-owning; must outlive
  /// serving). Like register_proc, must be set before dispatch starts —
  /// typically on a per-connection registry so the controller can hold
  /// per-session state.
  void set_admission(AdmissionController* admission) noexcept {
    admission_ = admission;
  }
  /// Admission hooks consulted by the serve loop between pre-flight and
  /// decode. No controller installed = everything admitted.
  [[nodiscard]] std::optional<ReplyMsg> admit(
      std::span<const std::uint8_t> record) const;
  void admission_complete() const;

  /// Executes one parsed call, producing the reply (never throws for
  /// call-level errors; they become reply statuses). Consults the
  /// duplicate-request cache when enabled.
  [[nodiscard]] ReplyMsg dispatch(const CallMsg& call) const;

 private:
  struct Key {
    std::uint32_t prog, vers, proc;
    auto operator<=>(const Key&) const = default;
  };
  struct DrcKey {
    std::uint64_t client;
    std::uint32_t xid;
    auto operator<=>(const DrcKey&) const = default;
  };
  struct DrcEntry {
    ReplyMsg reply;
    std::size_t bytes;
  };

  /// The cache lives on the heap so the registry stays movable (sim::Mutex
  /// is neither movable nor copyable). Null until enable_duplicate_cache.
  /// dispatch() is const and concurrent (connections sharing a registry),
  /// so all cache state sits behind its own lock.
  struct DrcState {
    DrcOptions options;
    sim::Mutex mu;
    sim::CondVar cv;
    std::map<DrcKey, DrcEntry> cache CRICKET_GUARDED_BY(mu);
    std::deque<DrcKey> fifo CRICKET_GUARDED_BY(mu);
    std::set<DrcKey> in_flight CRICKET_GUARDED_BY(mu);
    std::size_t bytes CRICKET_GUARDED_BY(mu) = 0;
    DrcStats stats CRICKET_GUARDED_BY(mu);

    void evict_locked() CRICKET_REQUIRES(mu);
  };

  /// dispatch() minus the duplicate cache.
  [[nodiscard]] ReplyMsg execute(const CallMsg& call) const;

  std::map<Key, ProcHandler> handlers_;
  std::map<Key, ProcWireBounds> bounds_;
  std::unique_ptr<DrcState> drc_;
  AdmissionController* admission_ = nullptr;
};

/// Per-connection serving options. They choose only the wire shape: calls
/// always execute one at a time, in arrival order, on the serving thread.
struct ServeOptions {
  /// 0 = the paper's serial wire shape: exact reads, and one record write
  /// per reply. Any nonzero value means pipelined intake: 64 KiB read-ahead,
  /// and replies are coalesced into one send until the next call is not yet
  /// whole in the read buffer, 64 KiB of replies wait, or the stream ends.
  std::uint32_t workers = 0;
};

/// Serves RPC records on one transport until end-of-stream, inline on the
/// calling thread; spawn your own thread for background service.
void serve_transport(const ServiceRegistry& registry, Transport& transport,
                     const ServeOptions& options = {});

/// The serving threads of a multi-connection server, one per connection.
/// spawn() first joins the threads whose connection has ended, so a
/// long-running server keeps a thread and its stack only per live
/// connection. Used by one thread at a time.
class ConnectionThreads {
 public:
  ConnectionThreads() = default;
  ConnectionThreads(const ConnectionThreads&) = delete;
  ConnectionThreads& operator=(const ConnectionThreads&) = delete;
  ~ConnectionThreads() { join_all(); }

  void spawn(std::function<void()> serve);
  void join_all();

 private:
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::list<Connection> connections_;  // list: `done` must not move
};

/// Threaded TCP server: accept loop plus one serving thread per connection.
/// Owns the listener.
class TcpRpcServer {
 public:
  TcpRpcServer(const ServiceRegistry& registry,
               std::unique_ptr<TcpListener> listener,
               ServeOptions options = {});
  ~TcpRpcServer();

  TcpRpcServer(const TcpRpcServer&) = delete;
  TcpRpcServer& operator=(const TcpRpcServer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept;
  void stop() CRICKET_EXCLUDES(mu_);

 private:
  void accept_loop() CRICKET_EXCLUDES(mu_);

  const ServiceRegistry* registry_;
  std::unique_ptr<TcpListener> listener_;
  ServeOptions options_;
  std::thread accept_thread_;
  sim::Mutex mu_;
  ConnectionThreads connections_ CRICKET_GUARDED_BY(mu_);
  std::atomic<bool> stopping_{false};
};

}  // namespace cricket::rpc
