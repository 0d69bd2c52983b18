#include "migrate/service.hpp"

#include <utility>

#include "migrate/state.hpp"
#include "migrate_bounds.hpp"
#include "migrate_proto.hpp"
#include "obs/metrics.hpp"
#include "rpc/server.hpp"

namespace cricket::migrate {
namespace {

/// Taint exit for transfer tickets: the pending/committed tables are the
/// authority — an unknown ticket answers kMigBadTicket (or is a no-op for
/// abort) in-band, so the raw value travels no further than a map lookup.
/// Counted by tools/taint_audit.py.
std::uint64_t ticket_value(xdr::Untrusted<std::uint64_t> ticket) noexcept {
  return ticket.trust_unchecked(
      "transfer ticket: pending/committed table lookup refuses unknown "
      "values in-band");
}

/// Adapter between the generated MIGRATE skeleton and MigrationTarget, so
/// the public header stays free of generated types.
class MigrationService final : public proto::MIGRATEVERSService {
 public:
  explicit MigrationService(MigrationTarget& target) : target_(&target) {}

  proto::mig_begin_result mig_begin(proto::mig_begin_args args) override {
    const auto res = target_->begin(args.tenant, args.total_bytes);
    return {res.err, res.ticket};
  }

  std::int32_t mig_chunk(proto::mig_chunk_args args) override {
    return target_->chunk(args.ticket, args.offset, args.data);
  }

  std::int32_t mig_commit(proto::mig_commit_args args) override {
    return target_->commit(args.ticket, args.checksum);
  }

  std::int32_t mig_abort(xdr::Untrusted<std::uint64_t> ticket) override {
    return target_->abort(ticket);
  }

 private:
  MigrationTarget* target_;
};

}  // namespace

MigrationTarget::MigrationTarget(core::CricketServer& server,
                                 MigrationTargetOptions options)
    : server_(&server), options_(options) {}

MigrationTarget::~MigrationTarget() = default;

void MigrationTarget::serve(rpc::Transport& transport) {
  MigrationService service(*this);
  rpc::ServiceRegistry registry;
  service.register_into(registry);
  registry.set_bounds(proto::bounds::kProcBounds);
  // At-most-once for the control connection itself: a coordinator retrying
  // a timed-out mig_chunk/mig_commit on this connection gets the cached
  // reply instead of a duplicate execution. (Retries that arrive over a
  // fresh connection are handled at the application level: duplicate chunks
  // and repeated commits are idempotent.)
  registry.enable_duplicate_cache({});
  rpc::serve_transport(registry, transport);
}

std::thread MigrationTarget::serve_async(
    std::unique_ptr<rpc::Transport> transport) {
  return std::thread([this, t = std::move(transport)] { serve(*t); });
}

MigrationTarget::BeginResult MigrationTarget::begin(
    const std::string& tenant, xdr::Untrusted<std::uint64_t> total_bytes) {
  // Both checks precede any buffering: a hostile declared length never
  // causes the allocation it describes, and the taint exit is the
  // max_image_bytes validation itself.
  if (tenant.empty()) return {kMigBadImage, 0};
  std::uint64_t total = 0;
  if (!total_bytes.try_validate(options_.max_image_bytes, total) ||
      total == 0)
    return {kMigTooLarge, 0};
  sim::MutexLock lock(mu_);
  if (pending_.size() >= options_.max_pending_transfers)
    return {kMigBusy, 0};
  const std::uint64_t ticket = next_ticket_++;
  PendingTransfer& pending = pending_[ticket];
  pending.tenant = tenant;
  pending.total = total;
  return {kMigOk, ticket};
}

std::int32_t MigrationTarget::chunk(xdr::Untrusted<std::uint64_t> ticket,
                                    xdr::Untrusted<std::uint64_t> offset,
                                    const std::vector<std::uint8_t>& data) {
  sim::MutexLock lock(mu_);
  const auto it = pending_.find(ticket_value(ticket));
  if (it == pending_.end()) return kMigBadTicket;
  PendingTransfer& pending = it->second;
  const std::uint64_t received = pending.bytes.size();
  // A retransmitted chunk whose range already landed (reply lost, retry
  // over a reconnected control channel) is acknowledged without appending;
  // the commit-time checksum catches any content divergence. The offset
  // never leaves the taint domain: `offset + data.size()` saturates rather
  // than wraps, so an offset near UINT64_MAX cannot masquerade as an
  // already-received range and is refused before any byte lands.
  if (offset < received) {
    return offset + data.size() <= received ? kMigOk : kMigOutOfOrder;
  }
  if (offset != received) return kMigOutOfOrder;
  if (received + data.size() > pending.total) return kMigOverrun;
  pending.bytes.insert(pending.bytes.end(), data.begin(), data.end());
  return kMigOk;
}

std::int32_t MigrationTarget::commit(xdr::Untrusted<std::uint64_t> wire_ticket,
                                     std::uint64_t checksum) {
  sim::MutexLock lock(mu_);
  const std::uint64_t ticket = ticket_value(wire_ticket);
  // Idempotent: the coordinator whose commit reply was lost re-sends it and
  // must learn "the tenant lives here now", not an error.
  if (committed_.count(ticket) != 0) return kMigOk;
  const auto it = pending_.find(ticket);
  if (it == pending_.end()) return kMigBadTicket;
  PendingTransfer& pending = it->second;
  if (pending.bytes.size() != pending.total) return kMigOutOfOrder;
  if (fnv64(pending.bytes) != checksum) return kMigChecksum;
  const std::int32_t err = import_locked(pending);
  if (err != kMigOk) return err;
  committed_.insert(ticket);
  pending_.erase(it);
  static obs::Counter& imported = obs::Registry::global().counter(
      "cricket_migrations_imported_total", {},
      "Tenant state images committed by this migration target");
  imported.inc();
  return kMigOk;
}

std::int32_t MigrationTarget::abort(xdr::Untrusted<std::uint64_t> wire_ticket) {
  sim::MutexLock lock(mu_);
  const std::uint64_t ticket = ticket_value(wire_ticket);
  if (committed_.count(ticket) != 0) return kMigCommitted;
  pending_.erase(ticket);  // unknown tickets are a no-op: aborts may retry
  return kMigOk;
}

std::uint64_t MigrationTarget::committed_count() const {
  sim::MutexLock lock(mu_);
  return static_cast<std::uint64_t>(committed_.size());
}

std::uint64_t MigrationTarget::pending_count() const {
  sim::MutexLock lock(mu_);
  return static_cast<std::uint64_t>(pending_.size());
}

std::int32_t MigrationTarget::import_locked(PendingTransfer& pending) {
  tenancy::SessionManager* tenants = server_->tenants();
  if (tenants == nullptr) return kMigNoTenants;

  MigrationImage image;
  try {
    image = decode_image(pending.bytes);
  } catch (const MigrationVersionError&) {
    return kMigVersion;
  } catch (const MigrationError&) {
    return kMigBadImage;
  }
  // The ticket is bound to the tenant it was opened for; an image that
  // names someone else is hostile or corrupt.
  if (image.tenant.spec.name != pending.tenant) return kMigBadImage;
  // Cache-shared modules need a module cache on this side: without one the
  // only fallback would be plain per-session ownership of a module several
  // sessions share, and the first teardown would unload it under the rest.
  // Refuse before restore_merge so nothing is placed on the device.
  if (server_->module_cache() == nullptr) {
    for (const auto& session : image.sessions)
      if (!session.cached_modules.empty()) return kMigNoModCache;
  }

  const std::uint32_t device_count = tenants->device_count();
  const std::uint32_t pin =
      (options_.pin_device == ~0u ? device_count - 1 : options_.pin_device) %
      device_count;
  // Merge every session's device slice in one atomic validate-then-mutate
  // step: restore_merge proves the whole batch placeable before touching
  // the device, so a refused image — even one whose last session is the
  // problem — leaves the device untouched and nothing else imported.
  std::vector<const gpusim::DeviceSnapshot*> slices;
  slices.reserve(image.sessions.size());
  for (const auto& session : image.sessions) slices.push_back(&session.state);
  try {
    server_->node().device(static_cast<int>(pin)).restore_merge(slices);
  } catch (const std::exception&) {
    return kMigDevice;
  }
  const tenancy::TenantId tenant = tenants->import_tenant(image.tenant);
  tenants->pin_shard(tenant, pin);
  // Seed the module cache with the content-cached modules restore_merge just
  // placed, so adopted sessions re-reference them instead of re-owning, and
  // future rpc_module_load_cached probes for the same hashes hit warm.
  if (auto* cache = server_->module_cache()) {
    for (const auto& session : image.sessions)
      for (const auto& cm : session.cached_modules)
        cache->seed(cm.hash, cm.bytes, pin, cm.id,
                    image.tenant.spec.name, cm.proof);
  }
  server_->stage_adoption(image.tenant.spec.name, std::move(image.sessions));
  return kMigOk;
}

}  // namespace cricket::migrate
