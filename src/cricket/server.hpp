// The Cricket server: executes forwarded CUDA API calls on the GPU node.
//
// "The Cricket server executes the CUDA APIs and forwards the results back
// to the application" (§3.3). One server owns a GpuNode; each client
// connection becomes a session with its own CUDA context (current device,
// resource tracking for cleanup on disconnect) and all sessions share the
// devices through a configurable kernel scheduler (§5).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cricket/scheduler.hpp"
#include "cricket/transfer.hpp"
#include "cudart/local_api.hpp"
#include "modcache/module_cache.hpp"
#include "rpc/server.hpp"
#include "rpc/transport.hpp"
#include "tenancy/session_manager.hpp"

namespace cricket::core {

/// Everything one session contributes to a live migration: its slice of
/// device state (allocations with contents, modules + resolved functions,
/// stream/event timelines, captured by Device::snapshot_subset), the
/// resource-ownership tables the server tracks for cleanup-on-disconnect,
/// and the connection's duplicate-request-cache entries so completed xids
/// are never re-executed after the client re-sends them to the target.
struct SessionExport {
  std::uint64_t session_id = 0;
  /// drc_client_id of the credential this session authenticated with,
  /// captured at bind time. Adoption on the target is keyed by it: only the
  /// connection presenting the same credential may take over this bundle,
  /// so the DRC entries (keyed client id + xid) land where they can match.
  std::uint64_t client_id = 0;
  gpusim::DeviceSnapshot state;
  /// ptr -> bytes charged against the tenant's memory quota.
  std::vector<std::pair<cuda::DevPtr, std::uint64_t>> allocations;
  std::vector<cuda::ModuleId> modules;
  std::vector<cuda::StreamId> streams;
  std::vector<cuda::EventId> events;
  std::vector<rpc::DrcExportEntry> drc;
  /// Modules this session references through the content-addressed cache:
  /// (device module id, truncated-SHA-256 image hash, image size). The
  /// hash is what lets a warm migration target re-reference its own cache
  /// instead of receiving the image again; exactly one exporting session
  /// also carries the module's device record in `state` (restore_merge
  /// refuses cross-snapshot handle collisions) and is flagged `owner` —
  /// the only session that may fall back to plain per-session ownership
  /// of the restored handle, so a shared module can never be unloaded out
  /// from under its co-referencing sessions. `proof` is the exporting
  /// tenant's possession proof (modcache::possession_proof over the image
  /// bytes the target never sees), letting the seeded entry keep answering
  /// that tenant's probes.
  struct CachedModule {
    cuda::ModuleId id = 0;
    std::uint64_t hash = 0;
    std::uint64_t bytes = 0;
    bool owner = false;
    modcache::Digest proof{};
  };
  std::vector<CachedModule> cached_modules;
};

namespace detail {
/// Seam between CricketServer's live-session table and the per-connection
/// session objects (which live on serve()'s stack, in an anonymous
/// namespace). export_if returns the session's migratable slice when it is
/// bound to `tenant`, nullopt otherwise. Only called after the tenant is
/// drained and frozen, so the session's resource tables are quiescent.
class SessionPeer {
 public:
  virtual ~SessionPeer() = default;
  /// `claimed_modules` accumulates cache-shared module ids already carried
  /// by an earlier session's snapshot in this export batch, so a module two
  /// sessions share lands in exactly one device-state slice.
  [[nodiscard]] virtual std::optional<SessionExport> export_if(
      tenancy::TenantId tenant, std::set<cuda::ModuleId>& claimed_modules) = 0;
};
}  // namespace detail

struct ServerOptions {
  SchedulerPolicy scheduler = SchedulerPolicy::kFifo;
  /// Directory prefix applied to checkpoint paths received via RPC (keeps
  /// clients from writing anywhere on the server host).
  std::string checkpoint_dir = ".";
  /// Per-connection RPC loop configuration. Setting `serve.workers` > 0
  /// selects pipelined intake (read-ahead, coalesced reply records) for
  /// clients that pipeline calls. Either way a session's calls execute one
  /// at a time in issue order, as its shared session state and CUDA stream
  /// semantics require.
  rpc::ServeOptions serve{};
  /// At-most-once execution: cache replies keyed by (client, xid) so a
  /// faultnet/retry client re-sending a timed-out call gets the original
  /// answer instead of a second kernel launch. Required whenever clients
  /// enable RetryPolicy::assume_at_most_once.
  bool at_most_once = false;
  rpc::DrcOptions drc{};
  /// Fair-share quantum / real-block budget / archive cap for the kernel
  /// scheduler (policy comes from `scheduler` above).
  SchedulerOptions scheduler_options{};
  /// Multi-tenant mode: authenticate every connection against this manager
  /// (non-owning; must outlive the server), enforce its quotas at admission
  /// before argument decode, shard sessions across devices by tenant, and
  /// group fair-share accounting by tenant. Null = historical single-tenant
  /// behaviour.
  tenancy::SessionManager* tenants = nullptr;
  /// Content-addressed module cache (ROADMAP item 5): when enabled the
  /// server deduplicates rpc_module_load images by truncated-SHA-256
  /// content hash and answers rpc_module_load_cached probes (which must
  /// carry a proof of possession) without the upload. Off by default — the
  /// historical per-load behaviour is unchanged.
  bool module_cache = false;
  modcache::ModuleCacheOptions module_cache_options{};
};

struct ServerStats {
  std::atomic<std::uint64_t> sessions{0};
  std::atomic<std::uint64_t> rpcs{0};
};

class CricketServer {
 public:
  explicit CricketServer(cuda::GpuNode& node, ServerOptions options = {});

  CricketServer(const CricketServer&) = delete;
  CricketServer& operator=(const CricketServer&) = delete;

  /// Serves one client connection until end-of-stream (blocking). `lanes`
  /// are optional parallel-socket side channels for bulk transfers.
  void serve(rpc::Transport& transport, TransferLanes lanes = {});

  /// Spawns a thread running serve(); the thread owns the transport.
  [[nodiscard]] std::thread serve_async(
      std::unique_ptr<rpc::Transport> transport, TransferLanes lanes = {});

  [[nodiscard]] cuda::GpuNode& node() noexcept { return *node_; }
  [[nodiscard]] KernelScheduler& scheduler() noexcept { return scheduler_; }
  [[nodiscard]] tenancy::SessionManager* tenants() noexcept {
    return options_.tenants;
  }
  /// Null unless ServerOptions::module_cache is set.
  [[nodiscard]] modcache::ModuleCache* module_cache() noexcept {
    return module_cache_.get();
  }
  [[nodiscard]] const ServerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ServerOptions& options() const noexcept {
    return options_;
  }

  void count_rpc() noexcept { stats_.rpcs.fetch_add(1); }

  // ------------------------- live migration support ------------------------

  /// Snapshots the migratable state of every live session bound to `tenant`.
  /// The caller (MigrationCoordinator) must have drained and frozen the
  /// tenant first: admission rejects its calls pre-decode, so the sessions
  /// are quiescent and reading their resource tables is race-free.
  [[nodiscard]] std::vector<SessionExport> export_tenant_sessions(
      tenancy::TenantId tenant);

  /// Target side: parks restored session bundles until their clients
  /// reconnect. Bundles are keyed by (tenant, client identity): a new
  /// connection adopts only a bundle exported under the very credential it
  /// authenticates with — taking over handle ownership for
  /// cleanup-on-disconnect and importing the bundle's DRC entries into the
  /// connection's duplicate-request cache before any call dispatches. (Two
  /// sessions of one multi-session tenant therefore can never swap bundles;
  /// clients sharing one credential fall back to FIFO among themselves,
  /// which is safe because their DRC entries share the client id anyway.)
  void stage_adoption(const std::string& tenant_name,
                      std::vector<SessionExport> bundles);
  [[nodiscard]] std::optional<SessionExport> take_adoption(
      const std::string& tenant_name, std::uint64_t client_id);

  /// Live-session table maintenance (called by serve()).
  void register_session(std::uint64_t id, detail::SessionPeer* peer);
  void unregister_session(std::uint64_t id);

 private:
  cuda::GpuNode* node_;
  ServerOptions options_;
  std::unique_ptr<modcache::ModuleCache> module_cache_;
  KernelScheduler scheduler_;
  ServerStats stats_;
  std::atomic<std::uint64_t> next_session_{1};
  sim::Mutex migrate_mu_;
  std::map<std::uint64_t, detail::SessionPeer*> sessions_
      CRICKET_GUARDED_BY(migrate_mu_);
  std::map<std::pair<std::string, std::uint64_t>, std::deque<SessionExport>>
      adoptions_ CRICKET_GUARDED_BY(migrate_mu_);
};

}  // namespace cricket::core
