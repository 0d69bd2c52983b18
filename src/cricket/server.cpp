#include "cricket/server.hpp"

#include <map>
#include <optional>
#include <set>

#include "cricket/checkpoint.hpp"
#include "cricket_bounds.hpp"
#include "cricket_proto.hpp"
#include "fatbin/fatbin.hpp"
#include "obs/metrics.hpp"
#include "rpc/server.hpp"

namespace cricket::core {
namespace {

using cuda::Error;

// fatbin/gpusim cannot include the generated spec constants, so the ingest
// cap they enforce is pinned here against the wire bound the spec promises.
static_assert(fatbin::kMaxModuleBytes == proto::taint::kMaxPayloadBytes,
              "fatbin ingest cap must match CRICKET_MAX_PAYLOAD");

std::int32_t to_wire(Error e) { return static_cast<std::int32_t>(e); }

/// Taint exit for opaque wire handles (device pointers, stream/event/module
/// ids). No a-priori bound exists for a handle: the gpusim resource tables
/// are the authority and refuse unknown values in-band
/// (kInvalidDevicePointer / kInvalidResourceHandle), so forwarding the raw
/// value is safe by construction. Counted by tools/taint_audit.py.
std::uint64_t handle(xdr::Untrusted<proto::ptr_t> h) noexcept {
  return h.trust_unchecked(
      "opaque handle: gpusim table lookup refuses unknown values in-band");
}

/// Taint exit for culibs integer dimensions. Sign and extent are checked
/// in-band (negative dims return kInvalidValue; operand spans are resolved
/// with overflow-safe bounds checks), and the wire contract pins those
/// error codes — validating here would turn them into kGarbageArgs.
int dim(xdr::Untrusted<std::int32_t> d) noexcept {
  return d.trust_unchecked(
      "culibs dim: sign/extent refused in-band against resolved spans");
}

/// Copies at or above this size contend for real device/PCIe time and are
/// arbitrated by the scheduler like kernel launches; smaller control-plane
/// copies pass straight through.
constexpr std::uint64_t kLargeTransferBytes = 256 * 1024;

/// One client connection: implements the generated service skeleton by
/// dispatching into the node's LocalCudaApi, tracks every resource the
/// client creates so a vanished unikernel cannot leak device memory, and
/// routes kernel launches through the shared scheduler.
class CricketSession final : public proto::CRICKETVERSService,
                             public detail::SessionPeer {
 public:
  CricketSession(CricketServer& server, std::uint64_t id, TransferLanes lanes)
      : server_(&server),
        id_(id),
        lanes_(std::move(lanes)),
        api_(server.node()),
        cache_(server.module_cache()),
        tenants_(server.tenants()) {
    server_->scheduler().session_open(id_);
  }

  ~CricketSession() override {
    // Release whatever the client leaked, in dependency-safe order.
    for (const auto e : events_) (void)api_.event_destroy(e);
    for (const auto s : streams_) (void)api_.stream_destroy(s);
    for (const auto m : modules_) {
      (void)api_.module_unload(m);
      release_module_charge(m);
    }
    // Cache-managed modules: drop this session's references; the device
    // modules stay resident (warm) until LRU eviction.
    if (cache_ != nullptr)
      for (const auto& [mod, ref] : cached_modules_)
        for (std::uint32_t i = 0; i < ref.count; ++i)
          cache_->release(ref.hash, ref.device, tenant_);
    for (const auto& [ptr, size] : allocations_) {
      (void)api_.free(ptr);
      if (bound()) tenants_->release_memory(tenant_, size);
    }
    server_->scheduler().session_close(id_);
  }

  /// Binds this session to its authenticated tenant. Called by admission on
  /// the connection's first call, before any dispatch runs, so the plain
  /// member writes are ordered before every handler: the session joins the
  /// tenant's fair-share group and pins itself to the tenant's device shard.
  /// `client_id` is the drc_client_id of the connection's credential — the
  /// identity migration adoption and the duplicate-request cache key on.
  void bind_tenant(tenancy::TenantId tenant, std::uint64_t client_id) {
    tenant_ = tenant;
    client_id_ = client_id;
    const auto spec = tenants_->spec(tenant);
    server_->scheduler().session_set_tenant(id_, tenant,
                                            spec ? spec->weight : 1,
                                            spec ? spec->priority : 0);
    (void)api_.set_device(static_cast<int>(tenants_->shard_device(tenant)));
    // Migration adoption: when a bundle migrated from another server is
    // staged for this client identity, this session takes over its
    // resources. The device state itself was already restore_merge'd at
    // commit time; here the session claims handle ownership (so
    // cleanup-on-disconnect and quota release keep working) and seeds the
    // connection's DRC with the source's completed replies. Bundles are
    // keyed by (tenant, client id), never handed out FIFO across a
    // multi-session tenant: a reconnecting client can only adopt the
    // session exported under its own credential, so the imported DRC
    // entries (keyed client id + xid) always match its re-sent xids.
    // Admission runs this on the serving thread before any dispatch, so
    // the DRC import strictly precedes every lookup on this connection — a
    // re-sent completed xid can never re-execute.
    if (spec) {
      if (auto adopted = server_->take_adoption(spec->name, client_id)) {
        for (const auto& [ptr, bytes] : adopted->allocations)
          allocations_.emplace(ptr, bytes);
        modules_.insert(adopted->modules.begin(), adopted->modules.end());
        streams_.insert(adopted->streams.begin(), adopted->streams.end());
        events_.insert(adopted->events.begin(), adopted->events.end());
        // Cache-referenced modules re-join the target's cache (seeded from
        // the migration image at import commit) without re-charging: the
        // imported tenant accounting already includes the source's charge.
        const auto device =
            static_cast<std::uint32_t>(tenants_->shard_device(tenant));
        for (const auto& cm : adopted->cached_modules) {
          if (cache_ != nullptr) {
            if (const auto mod = cache_->adopt(cm.hash, device, tenant_)) {
              CachedRef& ref = cached_modules_[*mod];
              ref.hash = cm.hash;
              ref.device = device;
              ref.size = cm.bytes;
              ++ref.count;
              continue;
            }
          }
          // The cache entry is gone (evicted between import and reconnect):
          // only the session whose snapshot carried the device record may
          // own the restored handle outright — giving it to every
          // co-referencing session would have the first teardown unload a
          // module the others still hold, and later unloads double-fire on
          // a dead handle. (A target without a cache refuses such imports
          // up front — see MigrationTarget::import_locked.)
          if (cm.owner) modules_.insert(cm.id);
        }
        if (registry_ != nullptr && !adopted->drc.empty())
          registry_->import_drc(adopted->drc);
      }
    }
  }

  /// Wires the connection's dispatch registry in so adoption can import DRC
  /// entries and migration export can read them. Set by serve() before the
  /// transport loop starts.
  void set_registry(rpc::ServiceRegistry* registry) noexcept {
    registry_ = registry;
  }

  /// detail::SessionPeer — one session's contribution to a tenant
  /// migration. Only called once the tenant is drained and frozen (no
  /// handler is running and none can be admitted), so reading the resource
  /// tables from the coordinator's thread is race-free.
  std::optional<SessionExport> export_if(
      tenancy::TenantId tenant,
      std::set<cuda::ModuleId>& claimed_modules) override {
    if (!bound() || tenant_ != tenant) return std::nullopt;
    SessionExport exp;
    exp.session_id = id_;
    exp.client_id = client_id_;
    gpusim::DeviceStateFilter filter;
    for (const auto& [ptr, bytes] : allocations_) {
      filter.allocations.push_back(ptr);
      exp.allocations.emplace_back(ptr, bytes);
    }
    filter.modules.assign(modules_.begin(), modules_.end());
    filter.streams.assign(streams_.begin(), streams_.end());
    filter.events.assign(events_.begin(), events_.end());
    exp.modules = filter.modules;
    exp.streams = filter.streams;
    exp.events = filter.events;
    // Cache-shared modules: every referencing session records the (id,
    // hash, size) record — that is what lets a warm target skip the
    // transfer — but only the first session in the batch carries the
    // device record (and the `owner` flag), because restore_merge refuses
    // the same module id in two snapshots. The tenant's possession proof
    // rides along so the target's seeded entry can keep answering this
    // tenant's probes without ever seeing the bytes.
    const std::string name = tenant_name();
    for (const auto& [mod, ref] : cached_modules_) {
      SessionExport::CachedModule cm;
      cm.id = mod;
      cm.hash = ref.hash;
      cm.bytes = ref.size;
      cm.owner = claimed_modules.insert(mod).second;
      if (cache_ != nullptr)
        if (const auto proof = cache_->proof_for(ref.hash, name))
          cm.proof = *proof;
      exp.cached_modules.push_back(cm);
      if (cm.owner) filter.modules.push_back(mod);
    }
    exp.state = api_.current().snapshot_subset(filter);
    // Only this client's entries: the bundle is adopted by the connection
    // presenting the same credential, where nothing else could ever match.
    if (registry_ != nullptr) exp.drc = registry_->export_drc(client_id_);
    return exp;
  }

  // ---------------------------- device mgmt ------------------------------
  proto::int_result rpc_get_device_count() override {
    count();
    int n = 0;
    const Error err = api_.get_device_count(n);
    return {to_wire(err), n};
  }

  std::int32_t rpc_set_device(xdr::Untrusted<std::int32_t> device) override {
    count();
    return to_wire(api_.set_device(device.trust_unchecked(
        "device ordinal: set_device refuses out-of-range in-band with "
        "kInvalidDevice")));
  }

  proto::int_result rpc_get_device() override {
    count();
    int d = 0;
    const Error err = api_.get_device(d);
    return {to_wire(err), d};
  }

  proto::dev_props_result rpc_get_device_properties(
      xdr::Untrusted<std::int32_t> device) override {
    count();
    cuda::DeviceInfo info;
    const Error err = api_.get_device_properties(
        info, device.trust_unchecked(
                  "device ordinal: get_device_properties refuses "
                  "out-of-range in-band with kInvalidDevice"));
    proto::dev_props_result res;
    res.err = to_wire(err);
    if (err == Error::kSuccess) {
      res.name = info.name;
      res.total_mem = info.total_mem;
      res.sm_arch = info.sm_arch;
      res.sm_count = info.sm_count;
      res.clock_mhz = info.clock_mhz;
    }
    return res;
  }

  // ------------------------------- memory --------------------------------
  proto::u64_result rpc_malloc(xdr::Untrusted<std::uint64_t> size) override {
    count();
    std::uint64_t bytes = 0;  // plain only after a refusal-checked exit
    if (bound()) {
      // Quota check before touching the device: a refusal charges nothing
      // (try_charge_memory is all-or-nothing, and the taint overload
      // refuses sizes that would saturate the quota arithmetic) and
      // surfaces as the typed cricketErrorQuotaExceeded result, not an
      // allocator failure.
      if (!tenants_->try_charge_memory(tenant_, size, bytes))
        return {to_wire(Error::kQuotaExceeded), 0};
    } else if (!size.try_validate(api_.current().memory().capacity(),
                                  bytes)) {
      // Larger than the whole device: the same in-band refusal the
      // allocator would produce, without constructing the request.
      return {to_wire(Error::kMemoryAllocation), 0};
    }
    cuda::DevPtr ptr = 0;
    const Error err = api_.malloc(ptr, size);
    if (err == Error::kSuccess) {
      allocations_.emplace(ptr, bytes);
    } else if (bound()) {
      tenants_->release_memory(tenant_, bytes);
    }
    return {to_wire(err), ptr};
  }

  std::int32_t rpc_free(xdr::Untrusted<proto::ptr_t> wire_ptr) override {
    count();
    const cuda::DevPtr ptr = handle(wire_ptr);
    const Error err = api_.free(ptr);
    if (err == Error::kSuccess) {
      const auto it = allocations_.find(ptr);
      if (it != allocations_.end()) {
        if (bound()) tenants_->release_memory(tenant_, it->second);
        allocations_.erase(it);
      }
    }
    return to_wire(err);
  }

  std::int32_t rpc_memset(xdr::Untrusted<proto::ptr_t> ptr,
                          std::int32_t value,
                          xdr::Untrusted<std::uint64_t> size) override {
    count();
    return to_wire(api_.memset(handle(ptr), value, size));
  }

  std::int32_t rpc_memcpy_h2d(xdr::Untrusted<proto::ptr_t> dst,
                              std::vector<std::uint8_t> data) override {
    count();
    admit_transfer(data.size());
    const Error err = api_.memcpy_h2d(handle(dst), data);
    if (err == Error::kSuccess) charge_transfer(data.size());
    return to_wire(err);
  }

  proto::data_result rpc_memcpy_d2h(
      xdr::Untrusted<proto::ptr_t> src,
      xdr::Untrusted<std::uint64_t> len) override {
    count();
    // The reply buffer is allocated from this wire length before the device
    // checks it against the source span, so it must clear the payload bound
    // first; a hostile length dies here as kGarbageArgs instead of driving
    // a multi-gigabyte resize.
    const std::uint64_t n =
        proto::taint::validate_length(len, "rpc_memcpy_d2h.len");
    admit_transfer(n);
    proto::data_result res;
    res.data.resize(n);
    res.err = to_wire(api_.memcpy_d2h(res.data, handle(src)));
    if (res.err != 0) res.data.clear();
    if (res.err == 0) charge_transfer(n);
    return res;
  }

  std::int32_t rpc_memcpy_d2d(xdr::Untrusted<proto::ptr_t> dst,
                              xdr::Untrusted<proto::ptr_t> src,
                              xdr::Untrusted<std::uint64_t> len) override {
    count();
    // Device-local copies never cross the wire, so the payload bound does
    // not apply; anything beyond the device capacity gets the same in-band
    // refusal resolve() would produce.
    std::uint64_t bytes = 0;
    if (!len.try_validate(api_.current().memory().capacity(), bytes))
      return to_wire(Error::kInvalidDevicePointer);
    admit_transfer(bytes);
    const Error err = api_.memcpy_d2d(handle(dst), handle(src), len);
    if (err == Error::kSuccess) charge_transfer(bytes);
    return to_wire(err);
  }

  std::int32_t rpc_memcpy_h2d_async(
      xdr::Untrusted<proto::ptr_t> dst, std::vector<std::uint8_t> data,
      xdr::Untrusted<proto::ptr_t> stream) override {
    count();
    admit_transfer(data.size());
    const Error err = api_.memcpy_h2d_async(handle(dst), data,
                                            handle(stream));
    if (err == Error::kSuccess) charge_transfer(data.size());
    return to_wire(err);
  }

  proto::data_result rpc_memcpy_d2h_async(
      xdr::Untrusted<proto::ptr_t> src, xdr::Untrusted<std::uint64_t> len,
      xdr::Untrusted<proto::ptr_t> stream) override {
    count();
    const std::uint64_t n =
        proto::taint::validate_length(len, "rpc_memcpy_d2h_async.len");
    admit_transfer(n);
    proto::data_result res;
    res.data.resize(n);
    res.err = to_wire(api_.memcpy_d2h_async(res.data, handle(src),
                                            handle(stream)));
    if (res.err != 0) res.data.clear();
    if (res.err == 0) charge_transfer(n);
    return res;
  }

  std::int32_t rpc_transfer_begin_h2d(
      xdr::Untrusted<proto::ptr_t> dst, xdr::Untrusted<std::uint64_t> len,
      xdr::Untrusted<std::uint32_t> lane_count) override {
    count();
    // The lane count is only ever compared, so it stays tainted.
    if (lane_count != lanes_.count() || lane_count == 0u)
      return to_wire(Error::kInvalidValue);
    const std::uint64_t n =
        proto::taint::validate_length(len, "rpc_transfer_begin_h2d.len");
    std::vector<std::uint8_t> buf(n);
    // A client that dropped its lanes mid-stripe left `buf` partly written.
    if (!gather_striped(lanes_, buf)) return to_wire(Error::kRpcFailure);
    admit_transfer(n);
    const Error err = api_.memcpy_h2d(handle(dst), buf);
    if (err == Error::kSuccess) charge_transfer(n);
    return to_wire(err);
  }

  std::int32_t rpc_transfer_begin_d2h(
      xdr::Untrusted<proto::ptr_t> src, xdr::Untrusted<std::uint64_t> len,
      xdr::Untrusted<std::uint32_t> lane_count) override {
    count();
    if (lane_count != lanes_.count() || lane_count == 0u)
      return to_wire(Error::kInvalidValue);
    const std::uint64_t n =
        proto::taint::validate_length(len, "rpc_transfer_begin_d2h.len");
    admit_transfer(n);
    std::vector<std::uint8_t> buf(n);
    const Error err = api_.memcpy_d2h(buf, handle(src));
    if (err != Error::kSuccess) return to_wire(err);
    charge_transfer(n);
    if (!scatter_striped(lanes_, buf)) return to_wire(Error::kRpcFailure);
    return to_wire(Error::kSuccess);
  }

  // --------------------------- streams & events --------------------------
  proto::u64_result rpc_stream_create() override {
    count();
    cuda::StreamId s = 0;
    const Error err = api_.stream_create(s);
    if (err == Error::kSuccess) streams_.insert(s);
    return {to_wire(err), s};
  }

  std::int32_t rpc_stream_destroy(
      xdr::Untrusted<proto::ptr_t> wire_stream) override {
    count();
    const cuda::StreamId stream = handle(wire_stream);
    const Error err = api_.stream_destroy(stream);
    if (err == Error::kSuccess) streams_.erase(stream);
    return to_wire(err);
  }

  std::int32_t rpc_stream_synchronize(
      xdr::Untrusted<proto::ptr_t> stream) override {
    count();
    return to_wire(api_.stream_synchronize(handle(stream)));
  }

  std::int32_t rpc_device_synchronize() override {
    count();
    return to_wire(api_.device_synchronize());
  }

  proto::u64_result rpc_event_create() override {
    count();
    cuda::EventId e = 0;
    const Error err = api_.event_create(e);
    if (err == Error::kSuccess) events_.insert(e);
    return {to_wire(err), e};
  }

  std::int32_t rpc_event_destroy(
      xdr::Untrusted<proto::ptr_t> wire_event) override {
    count();
    const cuda::EventId event = handle(wire_event);
    const Error err = api_.event_destroy(event);
    if (err == Error::kSuccess) events_.erase(event);
    return to_wire(err);
  }

  std::int32_t rpc_event_record(xdr::Untrusted<proto::ptr_t> event,
                                xdr::Untrusted<proto::ptr_t> stream) override {
    count();
    return to_wire(api_.event_record(handle(event), handle(stream)));
  }

  std::int32_t rpc_event_synchronize(
      xdr::Untrusted<proto::ptr_t> event) override {
    count();
    return to_wire(api_.event_synchronize(handle(event)));
  }

  proto::float_result rpc_event_elapsed(
      xdr::Untrusted<proto::ptr_t> start,
      xdr::Untrusted<proto::ptr_t> stop) override {
    count();
    float ms = 0;
    const Error err = api_.event_elapsed_ms(ms, handle(start), handle(stop));
    return {to_wire(err), ms};
  }

  std::int32_t rpc_stream_wait_event(
      xdr::Untrusted<proto::ptr_t> stream,
      xdr::Untrusted<proto::ptr_t> event) override {
    count();
    return to_wire(api_.stream_wait_event(handle(stream), handle(event)));
  }

  // --------------------------- modules & launch --------------------------
  proto::u64_result rpc_module_load(std::vector<std::uint8_t> image) override {
    count();
    if (cache_ != nullptr) {
      // Full upload with the cache on: load, then register under the
      // content hash. insert() dedupes a concurrent identical upload (the
      // redundant device module is dropped, the canonical id returned) and
      // charges the tenant per unique image.
      const std::uint64_t hash = modcache::hash_image(image);
      const std::uint32_t device = current_device();
      // Pre-flight the quota BEFORE any device work, mirroring the legacy
      // path's pre-charge ordering: a quota-exhausted tenant must not be
      // able to force full load/unload churn on the server. Skipped when
      // the tenant already pays for this image (re-load is charge-free);
      // insert() below performs the durable charge.
      if (bound() && !cache_->tenant_holds(hash, tenant_)) {
        if (!tenants_->try_charge_memory(tenant_, image.size())) {
          tenants_->count_rejection(tenant_,
                                    tenancy::RejectReason::kDeviceMemory);
          return {to_wire(Error::kQuotaExceeded), 0};
        }
        tenants_->release_memory(tenant_, image.size());
      }
      cuda::ModuleId mod = 0;
      const Error err = api_.module_load(mod, image);
      if (err != Error::kSuccess) return {to_wire(err), 0};
      const auto res = cache_->insert(hash, image, device, mod, tenant_);
      if (res.outcome == modcache::ModuleCache::Outcome::kQuotaExceeded) {
        (void)api_.module_unload(mod);
        if (bound())
          tenants_->count_rejection(tenant_,
                                    tenancy::RejectReason::kDeviceMemory);
        return {to_wire(Error::kQuotaExceeded), 0};
      }
      if (res.outcome == modcache::ModuleCache::Outcome::kCollision) {
        // The uploaded bytes contradict the resident entry for this hash
        // (truncated-hash collision or a poisoning attempt): the cache
        // refused them, so the freshly loaded module stays session-owned
        // like an uncached load — correct execution for this tenant, no
        // substitution for anyone else.
        if (bound() && !tenants_->try_charge_memory(tenant_, image.size())) {
          (void)api_.module_unload(mod);
          tenants_->count_rejection(tenant_,
                                    tenancy::RejectReason::kDeviceMemory);
          return {to_wire(Error::kQuotaExceeded), 0};
        }
        modules_.insert(mod);
        if (bound()) module_charges_.emplace(mod, image.size());
        return {to_wire(Error::kSuccess), mod};
      }
      note_cached_module(res.module, hash, device, res.size);
      return {to_wire(Error::kSuccess), res.module};
    }
    // Historical uncached path, now quota-metered: a bound tenant pays for
    // every image it keeps resident, per load (pre-charge like rpc_malloc:
    // a refused charge never reaches the device).
    if (bound() && !tenants_->try_charge_memory(tenant_, image.size())) {
      tenants_->count_rejection(tenant_, tenancy::RejectReason::kDeviceMemory);
      return {to_wire(Error::kQuotaExceeded), 0};
    }
    cuda::ModuleId mod = 0;
    const Error err = api_.module_load(mod, image);
    if (err == Error::kSuccess) {
      modules_.insert(mod);
      if (bound()) module_charges_.emplace(mod, image.size());
    } else if (bound()) {
      tenants_->release_memory(tenant_, image.size());
    }
    return {to_wire(err), mod};
  }

  proto::u64_result rpc_module_load_cached(
      xdr::Untrusted<std::uint64_t> wire_hash,
      std::vector<std::uint8_t> proof) override {
    count();
    // Taint exit: a content hash has no a-priori bound — the cache table is
    // the authority and answers unknown hashes in-band with kCacheMiss, so
    // the raw value travels no further than a map lookup (the client then
    // falls back to the full upload). Possession is proven separately: the
    // cache verifies `proof` against the entry's bytes before any hand-out.
    // Counted by tools/taint_audit.py.
    const std::uint64_t hash = wire_hash.trust_unchecked(
        "content hash: modcache table lookup answers unknown values in-band "
        "with kCacheMiss");
    if (cache_ == nullptr) return {to_wire(Error::kCacheMiss), 0};
    const std::uint32_t device = current_device();
    const std::string name = tenant_name();
    const auto res = cache_->acquire(hash, device, tenant_, name, proof);
    switch (res.outcome) {
      case modcache::ModuleCache::Outcome::kHit:
        note_cached_module(res.module, hash, device, res.size);
        return {to_wire(Error::kSuccess), res.module};
      case modcache::ModuleCache::Outcome::kQuotaExceeded:
        if (bound())
          tenants_->count_rejection(tenant_,
                                    tenancy::RejectReason::kDeviceMemory);
        return {to_wire(Error::kQuotaExceeded), 0};
      case modcache::ModuleCache::Outcome::kNeedInstance: {
        // Image resident from another device's upload (possession already
        // proven above): instantiate locally from the cached bytes — still
        // zero wire transfer.
        const auto bytes = cache_->image_bytes(hash);
        if (!bytes) return {to_wire(Error::kCacheMiss), 0};
        // Same pre-flight-before-device-work ordering as rpc_module_load.
        if (bound() && !cache_->tenant_holds(hash, tenant_)) {
          if (!tenants_->try_charge_memory(tenant_, bytes->size())) {
            tenants_->count_rejection(tenant_,
                                      tenancy::RejectReason::kDeviceMemory);
            return {to_wire(Error::kQuotaExceeded), 0};
          }
          tenants_->release_memory(tenant_, bytes->size());
        }
        cuda::ModuleId mod = 0;
        const Error err = api_.module_load(mod, *bytes);
        if (err != Error::kSuccess) return {to_wire(err), 0};
        const auto ins = cache_->insert(hash, *bytes, device, mod, tenant_);
        if (ins.outcome == modcache::ModuleCache::Outcome::kQuotaExceeded) {
          (void)api_.module_unload(mod);
          return {to_wire(Error::kQuotaExceeded), 0};
        }
        if (ins.outcome == modcache::ModuleCache::Outcome::kCollision) {
          // Unreachable with bytes read from the cache itself; answer the
          // conservative miss so the client falls back to the upload path.
          (void)api_.module_unload(mod);
          return {to_wire(Error::kCacheMiss), 0};
        }
        note_cached_module(ins.module, hash, device, ins.size);
        return {to_wire(Error::kSuccess), ins.module};
      }
      case modcache::ModuleCache::Outcome::kCollision:  // not an acquire
      case modcache::ModuleCache::Outcome::kMiss:       // outcome
        break;
    }
    return {to_wire(Error::kCacheMiss), 0};
  }

  std::int32_t rpc_module_unload(
      xdr::Untrusted<proto::ptr_t> wire_module) override {
    count();
    const cuda::ModuleId module = handle(wire_module);
    const auto cached = cached_modules_.find(module);
    if (cached != cached_modules_.end()) {
      // Cache-managed: drop this session's reference. The device module
      // stays loaded (warm) until LRU eviction, so unload always succeeds.
      cache_->release(cached->second.hash, cached->second.device, tenant_);
      if (--cached->second.count == 0) cached_modules_.erase(cached);
      return to_wire(Error::kSuccess);
    }
    const Error err = api_.module_unload(module);
    if (err == Error::kSuccess) {
      modules_.erase(module);
      release_module_charge(module);
    }
    return to_wire(err);
  }

  proto::u64_result rpc_module_get_function(
      xdr::Untrusted<proto::ptr_t> module, std::string name) override {
    count();
    cuda::FuncId fn = 0;
    const Error err = api_.module_get_function(fn, handle(module), name);
    return {to_wire(err), fn};
  }

  proto::u64_result rpc_module_get_global(
      xdr::Untrusted<proto::ptr_t> module, std::string name) override {
    count();
    cuda::DevPtr ptr = 0;
    const Error err = api_.module_get_global(ptr, handle(module), name);
    return {to_wire(err), ptr};
  }

  std::int32_t rpc_launch_kernel(xdr::Untrusted<proto::ptr_t> func,
                                 proto::rpc_dim3 grid, proto::rpc_dim3 block,
                                 xdr::Untrusted<std::uint32_t> shared,
                                 xdr::Untrusted<proto::ptr_t> stream,
                                 std::vector<std::uint8_t> params) override {
    count();
    // Geometry and shared-memory bounds come straight off the wire; the
    // gpusim validators convert a taint refusal into the same LaunchError
    // the device itself raises, so hostile geometry is kLaunchFailure, not
    // a crash or a garbled reply.
    cuda::Dim3 g, b;
    std::uint32_t shared_bytes = 0;
    try {
      g = gpusim::validated_dim3(grid.x, grid.y, grid.z, "grid");
      b = gpusim::validated_dim3(block.x, block.y, block.z, "block");
      shared_bytes = gpusim::validated_shared_bytes(shared);
    } catch (const gpusim::LaunchError&) {
      return to_wire(Error::kLaunchFailure);
    }
    const sim::Nanos wait = server_->scheduler().admit(id_);
    sim::Nanos exec_ns = 0;
    const Error err = api_.launch_kernel_timed(
        handle(func), g, b, shared_bytes, handle(stream), params, exec_ns);
    if (err == Error::kSuccess) {
      server_->scheduler().record_usage(id_, exec_ns);
      if (bound()) {
        tenants_->note_device_time(tenant_, exec_ns);
        tenants_->observe_launch_latency(tenant_, wait + exec_ns);
      }
    }
    return to_wire(err);
  }

  // ------------------------------- culibs --------------------------------
  std::int32_t rpc_blas_sgemm(
      xdr::Untrusted<std::int32_t> m, xdr::Untrusted<std::int32_t> n,
      xdr::Untrusted<std::int32_t> k, float alpha,
      xdr::Untrusted<proto::ptr_t> a, xdr::Untrusted<std::int32_t> lda,
      xdr::Untrusted<proto::ptr_t> b, xdr::Untrusted<std::int32_t> ldb,
      float beta, xdr::Untrusted<proto::ptr_t> c,
      xdr::Untrusted<std::int32_t> ldc) override {
    count();
    return to_wire(api_.blas_sgemm(dim(m), dim(n), dim(k), alpha, handle(a),
                                   dim(lda), handle(b), dim(ldb), beta,
                                   handle(c), dim(ldc)));
  }

  std::int32_t rpc_solver_sgetrf(xdr::Untrusted<std::int32_t> n,
                                 xdr::Untrusted<proto::ptr_t> a,
                                 xdr::Untrusted<std::int32_t> lda,
                                 xdr::Untrusted<proto::ptr_t> ipiv,
                                 xdr::Untrusted<proto::ptr_t> info) override {
    count();
    return to_wire(api_.solver_sgetrf(dim(n), handle(a), dim(lda),
                                      handle(ipiv), handle(info)));
  }

  std::int32_t rpc_solver_sgetrs(
      xdr::Untrusted<std::int32_t> n, xdr::Untrusted<std::int32_t> nrhs,
      xdr::Untrusted<proto::ptr_t> a, xdr::Untrusted<std::int32_t> lda,
      xdr::Untrusted<proto::ptr_t> ipiv, xdr::Untrusted<proto::ptr_t> b,
      xdr::Untrusted<std::int32_t> ldb,
      xdr::Untrusted<proto::ptr_t> info) override {
    count();
    return to_wire(api_.solver_sgetrs(dim(n), dim(nrhs), handle(a), dim(lda),
                                      handle(ipiv), handle(b), dim(ldb),
                                      handle(info)));
  }

  std::int32_t rpc_blas_sgemv(xdr::Untrusted<std::int32_t> m,
                              xdr::Untrusted<std::int32_t> n, float alpha,
                              xdr::Untrusted<proto::ptr_t> a,
                              xdr::Untrusted<std::int32_t> lda,
                              xdr::Untrusted<proto::ptr_t> x, float beta,
                              xdr::Untrusted<proto::ptr_t> y) override {
    count();
    return to_wire(api_.blas_sgemv(dim(m), dim(n), alpha, handle(a),
                                   dim(lda), handle(x), beta, handle(y)));
  }

  std::int32_t rpc_blas_saxpy(xdr::Untrusted<std::int32_t> n, float alpha,
                              xdr::Untrusted<proto::ptr_t> x,
                              xdr::Untrusted<proto::ptr_t> y) override {
    count();
    return to_wire(api_.blas_saxpy(dim(n), alpha, handle(x), handle(y)));
  }

  std::int32_t rpc_blas_snrm2(xdr::Untrusted<std::int32_t> n,
                              xdr::Untrusted<proto::ptr_t> x,
                              xdr::Untrusted<proto::ptr_t> result) override {
    count();
    return to_wire(api_.blas_snrm2(dim(n), handle(x), handle(result)));
  }

  std::int32_t rpc_solver_spotrf(xdr::Untrusted<std::int32_t> n,
                                 xdr::Untrusted<proto::ptr_t> a,
                                 xdr::Untrusted<std::int32_t> lda,
                                 xdr::Untrusted<proto::ptr_t> info) override {
    count();
    return to_wire(api_.solver_spotrf(dim(n), handle(a), dim(lda),
                                      handle(info)));
  }

  std::int32_t rpc_solver_spotrs(
      xdr::Untrusted<std::int32_t> n, xdr::Untrusted<std::int32_t> nrhs,
      xdr::Untrusted<proto::ptr_t> a, xdr::Untrusted<std::int32_t> lda,
      xdr::Untrusted<proto::ptr_t> b, xdr::Untrusted<std::int32_t> ldb,
      xdr::Untrusted<proto::ptr_t> info) override {
    count();
    return to_wire(api_.solver_spotrs(dim(n), dim(nrhs), handle(a), dim(lda),
                                      handle(b), dim(ldb), handle(info)));
  }

  // -------------------------- checkpoint/restart -------------------------
  std::int32_t rpc_checkpoint(std::string path) override {
    count();
    if (path.empty() || path.find("..") != std::string::npos)
      return to_wire(Error::kInvalidValue);
    try {
      checkpoint_to_file(api_.current(),
                         server_->options().checkpoint_dir + "/" + path);
      return to_wire(Error::kSuccess);
    } catch (const std::exception&) {
      return to_wire(Error::kFileNotFound);
    }
  }

  std::int32_t rpc_restore(std::string path) override {
    count();
    if (path.empty() || path.find("..") != std::string::npos)
      return to_wire(Error::kInvalidValue);
    try {
      restore_from_file(api_.current(),
                        server_->options().checkpoint_dir + "/" + path);
      return to_wire(Error::kSuccess);
    } catch (const std::exception&) {
      return to_wire(Error::kFileNotFound);
    }
  }

 private:
  void count() noexcept {
    server_->count_rpc();
    static obs::Counter& rpcs = obs::Registry::global().counter(
        "cricket_server_rpcs_total", {},
        "RPCs dispatched by Cricket sessions");
    rpcs.inc();
  }

  [[nodiscard]] bool bound() const noexcept {
    return tenants_ != nullptr && tenant_ != tenancy::kInvalidTenant;
  }

  /// The bound tenant's registered name ("" for unbound sessions) — the
  /// identity the module cache verifies possession proofs under. Clients
  /// compute their proofs with ClientConfig::tenant, which is the same
  /// string this session authenticated with.
  [[nodiscard]] std::string tenant_name() const {
    if (!bound()) return {};
    const auto spec = tenants_->spec(tenant_);
    return spec ? spec->name : std::string{};
  }

  [[nodiscard]] std::uint32_t current_device() {
    int d = 0;
    (void)api_.get_device(d);
    return static_cast<std::uint32_t>(d);
  }

  /// Records one cache reference held by this session. A session may load
  /// the same image repeatedly and gets the same module id back, so the
  /// bookkeeping counts references per id.
  void note_cached_module(cuda::ModuleId module, std::uint64_t hash,
                          std::uint32_t device, std::uint64_t size) {
    CachedRef& ref = cached_modules_[module];
    ref.hash = hash;
    ref.device = device;
    ref.size = size;
    ++ref.count;
  }

  void release_module_charge(cuda::ModuleId module) {
    const auto it = module_charges_.find(module);
    if (it == module_charges_.end()) return;
    if (bound()) tenants_->release_memory(tenant_, it->second);
    module_charges_.erase(it);
  }

  /// Large copies are arbitrated like kernel launches: fair-share admission
  /// before the bytes move, then the modelled transfer time is charged to
  /// the session and attributed to its tenant. Small control-plane copies
  /// skip the scheduler entirely.
  void admit_transfer(std::uint64_t bytes) {
    if (bytes < kLargeTransferBytes) return;
    server_->scheduler().admit_transfer(id_, bytes);
  }
  void charge_transfer(std::uint64_t bytes) {
    if (bytes < kLargeTransferBytes) return;
    const sim::Nanos ns = api_.current().copy_time(bytes);
    server_->scheduler().record_usage(id_, ns);
    if (bound()) tenants_->note_device_time(tenant_, ns);
  }

  CricketServer* server_;
  std::uint64_t id_;
  TransferLanes lanes_;
  cuda::LocalCudaApi api_;
  modcache::ModuleCache* cache_;  // null = cache disabled
  rpc::ServiceRegistry* registry_ = nullptr;
  tenancy::SessionManager* tenants_;
  tenancy::TenantId tenant_ = tenancy::kInvalidTenant;
  std::uint64_t client_id_ = 0;  // drc_client_id of the bound credential
  std::map<cuda::DevPtr, std::uint64_t> allocations_;  // ptr -> bytes
  std::set<cuda::ModuleId> modules_;
  std::set<cuda::StreamId> streams_;
  std::set<cuda::EventId> events_;
  /// Cache-managed module references held by this session (see modcache):
  /// unload and teardown release these through the cache, never the device.
  struct CachedRef {
    std::uint64_t hash = 0;
    std::uint32_t device = 0;
    std::uint64_t size = 0;
    std::uint32_t count = 0;
  };
  std::map<cuda::ModuleId, CachedRef> cached_modules_;
  /// Uncached loads charged against the tenant quota: module id -> bytes.
  std::map<cuda::ModuleId, std::uint64_t> module_charges_;
};

/// Pre-decode admission for one connection. The first structurally valid
/// record authenticates the connection's credential and binds the session
/// to its tenant (session-limit quota applies here); every record then
/// passes the per-call checks — outstanding-call cap, bytes/sec token
/// bucket, and a device-memory pre-check for cudaMalloc — before its
/// arguments are decoded. Rejections return typed replies through the
/// normal reply path, so the connection always survives.
class TenantAdmission final : public rpc::AdmissionController {
 public:
  TenantAdmission(tenancy::SessionManager& tenants, CricketSession& session,
                  std::uint64_t session_id)
      : tenants_(&tenants), session_(&session), id_(session_id) {}

  ~TenantAdmission() override {
    // serve_transport has returned before the controller is destroyed, so
    // a call still pending is one whose dispatch never produced a
    // completion (exception unwind); balance the outstanding accounting.
    complete();
    if (tenant_ != tenancy::kInvalidTenant)
      tenants_->close_session(tenant_, id_);
  }

  std::optional<rpc::ReplyMsg> admit(
      std::span<const std::uint8_t> record) override {
    rpc::CallHeader header;
    try {
      header = rpc::peek_call_header(record);
    } catch (const std::exception&) {
      // Structurally invalid: let the decode path produce the format error;
      // its completion must not be charged to any tenant.
      pending_ = tenancy::kInvalidTenant;
      return std::nullopt;
    }
    if (tenant_ == tenancy::kInvalidTenant) {
      std::optional<tenancy::TenantId> tenant;
      std::uint64_t client_id = 0;
      try {
        const rpc::OpaqueAuth cred = rpc::peek_call_credential(record);
        client_id = rpc::drc_client_id(cred);
        tenant = tenants_->authenticate(cred);
      } catch (const std::exception&) {
        tenant = std::nullopt;
      }
      if (!tenant) {
        tenants_->count_rejection(tenancy::kInvalidTenant,
                                  tenancy::RejectReason::kUnknownTenant);
        return denied(header.xid);
      }
      const auto opened = tenants_->open_session(*tenant, id_);
      if (!opened.admitted) return rejected(header.xid, opened.reason);
      tenant_ = *tenant;
      session_->bind_tenant(tenant_, client_id);
    }
    // A cudaMalloc from a tenant already at its memory quota cannot
    // succeed: refuse before its arguments are decoded.
    if (header.proc == proto::RPC_MALLOC_PROC &&
        tenants_->memory_exhausted(tenant_)) {
      tenants_->count_rejection(tenant_, tenancy::RejectReason::kDeviceMemory);
      return rejected(header.xid, tenancy::RejectReason::kDeviceMemory);
    }
    const auto admitted = tenants_->admit_call(tenant_, record.size());
    if (!admitted.admitted) return rejected(header.xid, admitted.reason);
    pending_ = tenant_;
    return std::nullopt;
  }

  void complete() override {
    const auto tenant = std::exchange(pending_, std::nullopt);
    if (tenant && *tenant != tenancy::kInvalidTenant)
      tenants_->complete_call(*tenant);
  }

 private:
  static std::optional<rpc::ReplyMsg> denied(std::uint32_t xid) {
    rpc::ReplyMsg reply;
    reply.xid = xid;
    reply.stat = rpc::ReplyStat::kDenied;
    reply.reject_stat = rpc::RejectStat::kAuthError;
    reply.auth_stat = rpc::AuthStat::kRejectedCred;
    return reply;
  }

  static std::optional<rpc::ReplyMsg> rejected(std::uint32_t xid,
                                               tenancy::RejectReason reason) {
    rpc::ReplyMsg reply;
    reply.xid = xid;
    // A migration freeze gets its own accept status (void body): answered
    // before decode, the call never executed, so the client may always
    // re-send the same xid — through the reconnect factory, which the
    // committed migration has redirected to the target server.
    if (reason == tenancy::RejectReason::kMigrating) {
      reply.accept_stat = rpc::AcceptStat::kMigrating;
      return reply;
    }
    reply.accept_stat = rpc::AcceptStat::kQuotaExceeded;
    reply.quota_reason = to_quota_reason(reason);
    return reply;
  }

  static rpc::QuotaReason to_quota_reason(
      tenancy::RejectReason reason) noexcept {
    switch (reason) {
      case tenancy::RejectReason::kRateLimited:
        return rpc::QuotaReason::kRateLimited;
      case tenancy::RejectReason::kOutstandingCalls:
        return rpc::QuotaReason::kOutstandingCalls;
      case tenancy::RejectReason::kDeviceMemory:
        return rpc::QuotaReason::kDeviceMemory;
      case tenancy::RejectReason::kSessionLimit:
        return rpc::QuotaReason::kSessionLimit;
      case tenancy::RejectReason::kUnknownTenant:
      case tenancy::RejectReason::kMigrating:  // own accept status, not quota
        break;
    }
    return rpc::QuotaReason::kUnspecified;
  }

  tenancy::SessionManager* tenants_;
  CricketSession* session_;
  std::uint64_t id_;
  tenancy::TenantId tenant_ = tenancy::kInvalidTenant;
  /// The tenant to credit when the admitted record completes. The serve
  /// loop admits and completes one record at a time on its own thread, so
  /// one slot and no lock suffice.
  std::optional<tenancy::TenantId> pending_;
};

}  // namespace

CricketServer::CricketServer(cuda::GpuNode& node, ServerOptions options)
    : node_(&node),
      options_(std::move(options)),
      scheduler_(options_.scheduler, node.clock(),
                 options_.scheduler_options) {
  if (options_.module_cache) {
    // Eviction/teardown unloads instances on the device that holds them —
    // never through a session's LocalCudaApi, whose current-device state
    // belongs to that session. A module already gone (device reset in a
    // test) is a no-op.
    module_cache_ = std::make_unique<modcache::ModuleCache>(
        options_.module_cache_options, options_.tenants,
        [node_ptr = node_](std::uint32_t device, std::uint64_t module) {
          try {
            node_ptr->device(static_cast<int>(device)).unload_module(module);
          } catch (const std::exception&) {
          }
        });
  }
}

void CricketServer::serve(rpc::Transport& transport, TransferLanes lanes) {
  const std::uint64_t id = next_session_.fetch_add(1);
  stats_.sessions.fetch_add(1);
  static obs::Counter& sessions = obs::Registry::global().counter(
      "cricket_server_sessions_total", {}, "Client sessions served");
  sessions.inc();
  CricketSession session(*this, id, std::move(lanes));
  rpc::ServiceRegistry registry;
  session.register_into(registry);
  session.set_registry(&registry);
  // Track the live session so a MigrationCoordinator can snapshot it; the
  // guard unregisters before session/registry leave scope.
  register_session(id, &session);
  struct SessionGuard {
    CricketServer* server;
    std::uint64_t id;
    ~SessionGuard() { server->unregister_session(id); }
  } guard{this, id};
  // Decode pre-flight from the rpclgen-proven bounds tables: records whose
  // length can not belong to the addressed procedure are answered
  // GARBAGE_ARGS before any allocation or argument decode.
  registry.set_bounds(proto::bounds::kProcBounds);
  // Multi-tenant mode: admission (authentication + quota enforcement) runs
  // between the bounds pre-flight and the argument decode.
  std::unique_ptr<TenantAdmission> admission;
  if (options_.tenants != nullptr) {
    admission =
        std::make_unique<TenantAdmission>(*options_.tenants, session, id);
    registry.set_admission(admission.get());
  }
  if (options_.at_most_once) registry.enable_duplicate_cache(options_.drc);
  rpc::serve_transport(registry, transport, options_.serve);
}

std::thread CricketServer::serve_async(
    std::unique_ptr<rpc::Transport> transport, TransferLanes lanes) {
  return std::thread(
      [this, t = std::move(transport), l = std::move(lanes)]() mutable {
        serve(*t, std::move(l));
      });
}

std::vector<SessionExport> CricketServer::export_tenant_sessions(
    tenancy::TenantId tenant) {
  // Hold migrate_mu_ across the exports: a session of some *other* tenant
  // may disconnect concurrently, and its serve() frame unregisters under
  // this lock before the object dies — so the peer pointers stay valid for
  // exactly as long as we hold it. export_if's inner locks (device state,
  // DRC) only ever nest under migrate_mu_, never the other way around.
  sim::MutexLock lock(migrate_mu_);
  std::vector<SessionExport> out;
  std::set<cuda::ModuleId> claimed_modules;
  for (const auto& [id, peer] : sessions_)
    if (auto exp = peer->export_if(tenant, claimed_modules))
      out.push_back(std::move(*exp));
  return out;
}

void CricketServer::stage_adoption(const std::string& tenant_name,
                                   std::vector<SessionExport> bundles) {
  sim::MutexLock lock(migrate_mu_);
  for (auto& bundle : bundles) {
    auto& queue = adoptions_[{tenant_name, bundle.client_id}];
    queue.push_back(std::move(bundle));
  }
}

std::optional<SessionExport> CricketServer::take_adoption(
    const std::string& tenant_name, std::uint64_t client_id) {
  sim::MutexLock lock(migrate_mu_);
  const auto it = adoptions_.find({tenant_name, client_id});
  if (it == adoptions_.end() || it->second.empty()) return std::nullopt;
  SessionExport bundle = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) adoptions_.erase(it);
  return bundle;
}

void CricketServer::register_session(std::uint64_t id,
                                     detail::SessionPeer* peer) {
  sim::MutexLock lock(migrate_mu_);
  sessions_.emplace(id, peer);
}

void CricketServer::unregister_session(std::uint64_t id) {
  sim::MutexLock lock(migrate_mu_);
  sessions_.erase(id);
}

}  // namespace cricket::core
