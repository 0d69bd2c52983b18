// SessionManager: tenant registry, credential authentication, device
// sharding, and quota enforcement at admission.
//
// One SessionManager serves one CricketServer. Tenants register with a
// name (the AUTH_SYS machinename their clients present), a fair-share
// weight/priority, and a quota envelope. Each incoming connection becomes
// a session bound to exactly one tenant at its first call; per-call
// admission (outstanding-call cap + bytes/sec token bucket) then runs on
// the connection's serving thread before any argument decode, and
// rejections are answered with the typed kQuotaExceeded reply — the
// connection always survives.
//
// Sharding: a tenant's sessions land on one simulated gpusim device chosen
// by a consistent hash of the TenantId, so a tenant's allocations and
// kernels stay device-local and per-device accounting stays meaningful.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "obs/metrics.hpp"
#include "rpc/rpc_msg.hpp"
#include "sim/annotations.hpp"
#include "sim/sim_clock.hpp"
#include "tenancy/tenant.hpp"
#include "xdr/taint.hpp"
#include "tenancy/token_bucket.hpp"

namespace cricket::tenancy {

/// Admission verdict for one call/session.
struct Admission {
  bool admitted = true;
  RejectReason reason = RejectReason::kUnknownTenant;

  static Admission ok() { return {true, RejectReason::kUnknownTenant}; }
  static Admission reject(RejectReason r) { return {false, r}; }
};

/// Portable dynamic state of one tenant, for live migration: the quota spec
/// plus the accounting that must survive the move. Outstanding calls are
/// deliberately absent — a migration quiesces (drains) the tenant before
/// exporting, so there is nothing in flight to carry. Live open_sessions are
/// also absent: sessions re-open on the target as clients reconnect.
struct TenantExport {
  TenantSpec spec;
  /// Token-bucket level at export time (anti-gaming: a migration must not
  /// hand the tenant a freshly refilled bucket).
  std::uint64_t bucket_tokens = ~0ull;
  std::uint64_t mem_used_bytes = 0;
  std::uint64_t mem_peak_bytes = 0;
  std::uint64_t calls_admitted = 0;
  std::uint64_t calls_rejected = 0;
  std::uint64_t device_ns = 0;
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;
};

struct SessionManagerOptions {
  /// Simulated gpusim devices the server exposes; sessions shard across
  /// them consistently by tenant.
  std::uint32_t device_count = 1;
  /// When non-empty, credentials that match no registered tenant (including
  /// AUTH_NONE) are admitted as this tenant — it must itself be registered.
  /// Empty = unknown credentials are rejected with an auth denial.
  std::string default_tenant;
};

class SessionManager {
 public:
  explicit SessionManager(sim::SimClock& clock,
                          SessionManagerOptions options = {});

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Registers (or re-configures) a tenant keyed by spec.name. Returns its
  /// id; registering an existing name updates weight/priority/quota in
  /// place and keeps the id and accounting.
  TenantId register_tenant(const TenantSpec& spec) CRICKET_EXCLUDES(mu_);

  /// Credential → tenant: AUTH_SYS machinename lookup, with the configured
  /// default tenant as fallback. nullopt = reject with an auth denial.
  [[nodiscard]] std::optional<TenantId> authenticate(
      const rpc::OpaqueAuth& cred) const CRICKET_EXCLUDES(mu_);

  /// Tenant → device shard: a migration pin when one is set (see
  /// pin_shard), otherwise the consistent hash (FNV-1a of the id mod
  /// device_count).
  [[nodiscard]] std::uint32_t shard_device(TenantId tenant) const
      CRICKET_EXCLUDES(mu_);

  /// Pins a tenant to a specific device, overriding the consistent hash.
  /// Migration uses this on the target: the moved tenant lands on a
  /// reserved pristine device so restored allocation addresses and handle
  /// ids can never collide with residents.
  void pin_shard(TenantId tenant, std::uint32_t device) CRICKET_EXCLUDES(mu_);

  /// Session lifecycle. open_session enforces quota.max_sessions.
  [[nodiscard]] Admission open_session(TenantId tenant, std::uint64_t session)
      CRICKET_EXCLUDES(mu_);
  void close_session(TenantId tenant, std::uint64_t session)
      CRICKET_EXCLUDES(mu_);

  /// Per-call admission: outstanding-call cap, then the bytes/sec token
  /// bucket charged with the record's wire size. An admitted call must be
  /// balanced by complete_call once its reply exists.
  [[nodiscard]] Admission admit_call(TenantId tenant, std::uint64_t wire_bytes)
      CRICKET_EXCLUDES(mu_);
  void complete_call(TenantId tenant) CRICKET_EXCLUDES(mu_);

  /// Migration freeze. While a tenant is draining, admit_call and
  /// open_session refuse everything with RejectReason::kMigrating (the
  /// typed, always-retryable reply) and no new work enters; wait_quiesced
  /// then blocks until the calls admitted before the freeze have all been
  /// balanced by complete_call. end_drain lifts the freeze (abort path —
  /// a committed migration instead flips the redirect while still frozen).
  void begin_drain(TenantId tenant) CRICKET_EXCLUDES(mu_);
  void end_drain(TenantId tenant) CRICKET_EXCLUDES(mu_);
  [[nodiscard]] bool draining(TenantId tenant) const CRICKET_EXCLUDES(mu_);
  /// True when outstanding calls hit zero before the timeout.
  [[nodiscard]] bool wait_quiesced(TenantId tenant,
                                   std::chrono::nanoseconds timeout)
      CRICKET_EXCLUDES(mu_);

  /// Snapshots a tenant's migratable state (see TenantExport). Refills the
  /// token bucket to "now" first, hence non-const. nullopt for unknown ids.
  [[nodiscard]] std::optional<TenantExport> export_tenant(TenantId tenant)
      CRICKET_EXCLUDES(mu_);
  /// Registers (or re-configures) the tenant from an export and seeds its
  /// bucket level and accounting. Returns the local tenant id (ids are
  /// per-manager; only the name is stable across servers).
  TenantId import_tenant(const TenantExport& exp) CRICKET_EXCLUDES(mu_);

  /// Device-memory accounting: charge at cudaMalloc, release at cudaFree /
  /// session teardown. try_charge refuses (and charges nothing) past quota.
  [[nodiscard]] bool try_charge_memory(TenantId tenant, std::uint64_t bytes)
      CRICKET_EXCLUDES(mu_);
  /// Wiretaint seam: charge a wire-derived byte count. The value leaves
  /// the taint domain only after the (saturating) quota check admits it;
  /// on success `charged` holds the validated plain count for bookkeeping.
  [[nodiscard]] bool try_charge_memory(TenantId tenant,
                                       xdr::Untrusted<std::uint64_t> bytes,
                                       std::uint64_t& charged)
      CRICKET_EXCLUDES(mu_);
  void release_memory(TenantId tenant, std::uint64_t bytes)
      CRICKET_EXCLUDES(mu_);
  /// True when the tenant's live allocations already reach quota — lets
  /// admission refuse a cudaMalloc before decode.
  [[nodiscard]] bool memory_exhausted(TenantId tenant) const
      CRICKET_EXCLUDES(mu_);

  /// Attributes device time (kernel execution, modelled large-copy time) to
  /// the tenant: stats + cricket_tenant_device_ns_total{tenant=...}.
  void note_device_time(TenantId tenant, sim::Nanos ns) CRICKET_EXCLUDES(mu_);
  /// Per-tenant launch latency (admission wait + execution), virtual ns.
  void observe_launch_latency(TenantId tenant, sim::Nanos ns)
      CRICKET_EXCLUDES(mu_);

  /// Counts a rejection that happened outside admit_call/open_session (auth
  /// failures, malloc-time memory refusals), so the
  /// cricket_tenant_admission_rejected_total{reason} series stays complete.
  void count_rejection(TenantId tenant, RejectReason reason)
      CRICKET_EXCLUDES(mu_);

  [[nodiscard]] std::optional<TenantSpec> spec(TenantId tenant) const
      CRICKET_EXCLUDES(mu_);
  [[nodiscard]] std::optional<TenantId> find(const std::string& name) const
      CRICKET_EXCLUDES(mu_);
  [[nodiscard]] TenantStats stats(TenantId tenant) const CRICKET_EXCLUDES(mu_);
  [[nodiscard]] std::uint32_t device_count() const noexcept {
    return options_.device_count;
  }

 private:
  struct Tenant {
    TenantSpec spec;
    TokenBucket bucket{0, 1};  // reconfigured at registration
    TenantStats stats;
    /// Migration freeze flag (see begin_drain).
    bool draining = false;
    /// Migration shard pin; ~0u = unpinned (use the consistent hash).
    std::uint32_t pinned_device = ~0u;
    /// Cached instrument references (stable for the registry's lifetime).
    obs::Counter* device_ns_total = nullptr;
    obs::Histogram* launch_latency = nullptr;
  };

  Tenant* find_locked(TenantId tenant) CRICKET_REQUIRES(mu_);
  const Tenant* find_locked(TenantId tenant) const CRICKET_REQUIRES(mu_);
  void count_rejection_locked(Tenant* t, RejectReason reason)
      CRICKET_REQUIRES(mu_);

  sim::SimClock* clock_;
  SessionManagerOptions options_;
  mutable sim::Mutex mu_;
  /// Signalled by complete_call whenever a draining tenant's outstanding
  /// count drops; wait_quiesced sleeps on it.
  mutable sim::CondVar quiesce_cv_;
  std::map<TenantId, Tenant> tenants_ CRICKET_GUARDED_BY(mu_);
  std::map<std::string, TenantId> by_name_ CRICKET_GUARDED_BY(mu_);
  TenantId next_id_ CRICKET_GUARDED_BY(mu_) = 1;
  /// Global per-reason rejection counters, resolved once at construction.
  obs::Counter* rejected_[kRejectReasonCount] = {};
};

}  // namespace cricket::tenancy
