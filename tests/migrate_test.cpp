// Live migration (src/migrate): the checkpoint version gate, the migration
// image codec, the MIGRATE transfer protocol's bounds and idempotence, the
// typed admission freeze, and end-to-end tenant migration between two
// CricketServers — including exactly-once preservation across the redirect
// flip (migrated duplicate-request cache) and the whole dance under
// faultnet drop/partition/reset faults.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "cricket/checkpoint.hpp"
#include "cricket/client.hpp"
#include "cricket/server.hpp"
#include "cudart/error.hpp"
#include "cudart/local_api.hpp"
#include "fatbin/cubin.hpp"
#include "faultnet/fault_spec.hpp"
#include "faultnet/faulty_transport.hpp"
#include "migrate/coordinator.hpp"
#include "migrate/redirect.hpp"
#include "migrate/service.hpp"
#include "migrate/state.hpp"
#include "obs/metrics.hpp"
#include "rpc/transport.hpp"
#include "sim/rng.hpp"
#include "tenancy/session_manager.hpp"

namespace cricket::migrate {
namespace {

using namespace std::chrono_literals;
using core::CricketServer;
using core::RemoteCudaApi;

/// MigrationTarget's wire scalars arrive tainted; tests that drive the
/// procedure bodies directly wrap plain values the same way the decoder
/// does.
xdr::Untrusted<std::uint64_t> U(std::uint64_t v) {
  return xdr::Untrusted<std::uint64_t>(v);
}
using core::SessionExport;
using cuda::Error;

// A one-parameter marker kernel: the registered handler counts executions,
// which is how every exactly-once assertion below is grounded.
fatbin::CubinImage mark_image() {
  fatbin::CubinImage img;
  img.sm_arch = 75;
  fatbin::KernelDescriptor k;
  k.name = "mig_mark";
  k.params = {{.size = 4, .align = 4, .is_pointer = false}};
  img.kernels.push_back(k);
  img.code = fatbin::make_pseudo_isa(64, 3);
  return img;
}

void register_mark(gpusim::KernelRegistry& reg, std::atomic<std::uint64_t>* n) {
  reg.register_kernel("mig_mark", [n](gpusim::LaunchContext& ctx) {
    (void)ctx.param<std::uint32_t>(0);
    n->fetch_add(1);
    ctx.charge_flops(1.0);
  });
}

std::vector<std::uint8_t> mark_params(std::uint32_t tag) {
  std::vector<std::uint8_t> p(4);
  std::memcpy(p.data(), &tag, 4);
  return p;
}

// ------------------------- checkpoint version gate --------------------------

TEST(CheckpointVersioning, FutureVersionIsDistinctFromCorruption) {
  gpusim::DeviceSnapshot snap;
  snap.next_id = 3;
  auto blob = core::encode_checkpoint(snap);
  ASSERT_GE(blob.size(), 8u);

  // Header is magic "CKPT" + big-endian version word; byte 7 is its LSB.
  auto future = blob;
  future[7] = 9;
  EXPECT_THROW((void)core::decode_checkpoint(future),
               core::CheckpointVersionError);

  // Version 0 is nonsense, not "from the future": generic error only.
  auto zero = blob;
  zero[4] = zero[5] = zero[6] = zero[7] = 0;
  try {
    (void)core::decode_checkpoint(zero);
    FAIL() << "version 0 accepted";
  } catch (const core::CheckpointVersionError&) {
    FAIL() << "version 0 misreported as future-versioned";
  } catch (const core::CheckpointError&) {
  }

  // Body corruption under the current version: generic error only (the
  // checksum gate), never the version error a rolling upgrade keys on.
  auto corrupt = blob;
  corrupt.back() ^= 0xFF;
  try {
    (void)core::decode_checkpoint(corrupt);
    FAIL() << "corrupted checkpoint accepted";
  } catch (const core::CheckpointVersionError&) {
    FAIL() << "corruption misreported as future-versioned";
  } catch (const core::CheckpointError&) {
  }
}

TEST(CheckpointVersioning, TimelinesAndHandleTablesRoundTripLosslessly) {
  std::atomic<std::uint64_t> execs{0};
  auto node = cuda::GpuNode::make_a100();
  register_mark(node->registry(), &execs);
  auto& dev = node->device(0);

  const auto stream = dev.stream_create();
  const auto e1 = dev.event_create();
  const auto e2 = dev.event_create();
  dev.event_record(e1, stream);
  const auto mod = dev.load_module(fatbin::cubin_serialize(mark_image()));
  const auto fn = dev.get_function(mod, "mig_mark");
  (void)dev.launch(fn, {1, 1, 1}, {1, 1, 1}, 0, stream, mark_params(1));
  dev.event_record(e2, stream);
  dev.stream_synchronize(stream);

  const auto snap = dev.snapshot();
  const auto decoded = core::decode_checkpoint(core::encode_checkpoint(snap));

  // Stream/event timelines are value-compared: ids AND timestamps.
  EXPECT_EQ(decoded.streams, snap.streams);
  EXPECT_EQ(decoded.events, snap.events);
  EXPECT_EQ(decoded.next_id, snap.next_id);
  // Module handle table: ids, images, and global-symbol placement.
  ASSERT_EQ(decoded.modules.size(), snap.modules.size());
  for (std::size_t i = 0; i < snap.modules.size(); ++i) {
    EXPECT_EQ(decoded.modules[i].id, snap.modules[i].id);
    EXPECT_EQ(decoded.modules[i].image, snap.modules[i].image);
    EXPECT_EQ(decoded.modules[i].globals, snap.modules[i].globals);
  }
  // Function handle table: the FuncId a client holds must survive.
  ASSERT_EQ(decoded.functions.size(), snap.functions.size());
  for (std::size_t i = 0; i < snap.functions.size(); ++i) {
    EXPECT_EQ(decoded.functions[i].id, snap.functions[i].id);
    EXPECT_EQ(decoded.functions[i].module, snap.functions[i].module);
    EXPECT_EQ(decoded.functions[i].kernel_name, snap.functions[i].kernel_name);
  }
}

// ------------------------- migration image codec ----------------------------

MigrationImage sample_image() {
  MigrationImage img;
  img.tenant.spec.name = "alice";
  img.tenant.spec.weight = 3;
  img.tenant.spec.priority = 1;
  img.tenant.spec.quota = {.device_mem_bytes = 123,
                           .max_outstanding_calls = 4,
                           .bytes_per_sec = 5,
                           .burst_bytes = 6,
                           .max_sessions = 7};
  img.tenant.bucket_tokens = 55;
  img.tenant.mem_used_bytes = 99;
  img.tenant.mem_peak_bytes = 100;
  img.tenant.calls_admitted = 101;
  img.tenant.calls_rejected = 2;
  img.tenant.device_ns = 103;
  img.tenant.sessions_opened = 5;
  img.tenant.sessions_closed = 4;

  SessionExport s;
  s.session_id = 42;
  s.client_id = 0xC11E17;
  s.state.next_id = 10;
  s.state.allocations.push_back({0x1000, 4, {1, 2, 3, 4}});
  s.state.modules.push_back({2, {9, 9, 9}, {{"g_bias", 0x500}}});
  s.state.functions.push_back({3, 2, "mig_mark"});
  s.state.streams = {{0, 111}, {5, 222}};
  s.state.events = {{6, 333}};
  s.allocations = {{0x1000, 4}};
  s.modules = {2};
  s.streams = {5};
  s.events = {6};
  s.drc.push_back({0xABCDEFull, 9, {1, 2, 3, 4, 5}});
  img.sessions.push_back(std::move(s));
  return img;
}

TEST(MigrationImageCodec, RoundTripIsLossless) {
  const MigrationImage img = sample_image();
  const MigrationImage out = decode_image(encode_image(img));

  EXPECT_EQ(out.tenant.spec.name, img.tenant.spec.name);
  EXPECT_EQ(out.tenant.spec.weight, img.tenant.spec.weight);
  EXPECT_EQ(out.tenant.spec.priority, img.tenant.spec.priority);
  EXPECT_EQ(out.tenant.spec.quota.device_mem_bytes, 123u);
  EXPECT_EQ(out.tenant.spec.quota.max_outstanding_calls, 4u);
  EXPECT_EQ(out.tenant.spec.quota.bytes_per_sec, 5u);
  EXPECT_EQ(out.tenant.spec.quota.burst_bytes, 6u);
  EXPECT_EQ(out.tenant.spec.quota.max_sessions, 7u);
  EXPECT_EQ(out.tenant.bucket_tokens, 55u);
  EXPECT_EQ(out.tenant.mem_used_bytes, 99u);
  EXPECT_EQ(out.tenant.mem_peak_bytes, 100u);
  EXPECT_EQ(out.tenant.calls_admitted, 101u);
  EXPECT_EQ(out.tenant.calls_rejected, 2u);
  EXPECT_EQ(out.tenant.device_ns, 103u);
  EXPECT_EQ(out.tenant.sessions_opened, 5u);
  EXPECT_EQ(out.tenant.sessions_closed, 4u);

  ASSERT_EQ(out.sessions.size(), 1u);
  const auto& s = out.sessions[0];
  const auto& in = img.sessions[0];
  EXPECT_EQ(s.session_id, 42u);
  EXPECT_EQ(s.client_id, 0xC11E17u);
  EXPECT_EQ(s.state.next_id, in.state.next_id);
  ASSERT_EQ(s.state.allocations.size(), 1u);
  EXPECT_EQ(s.state.allocations[0].addr, 0x1000u);
  EXPECT_EQ(s.state.allocations[0].bytes, in.state.allocations[0].bytes);
  ASSERT_EQ(s.state.modules.size(), 1u);
  EXPECT_EQ(s.state.modules[0].image, in.state.modules[0].image);
  EXPECT_EQ(s.state.modules[0].globals, in.state.modules[0].globals);
  ASSERT_EQ(s.state.functions.size(), 1u);
  EXPECT_EQ(s.state.functions[0].kernel_name, "mig_mark");
  EXPECT_EQ(s.state.streams, in.state.streams);
  EXPECT_EQ(s.state.events, in.state.events);
  EXPECT_EQ(s.allocations, in.allocations);
  EXPECT_EQ(s.modules, in.modules);
  EXPECT_EQ(s.streams, in.streams);
  EXPECT_EQ(s.events, in.events);
  ASSERT_EQ(s.drc.size(), 1u);
  EXPECT_EQ(s.drc[0].client, 0xABCDEFull);
  EXPECT_EQ(s.drc[0].xid, 9u);
  EXPECT_EQ(s.drc[0].reply, in.drc[0].reply);
}

TEST(MigrationImageCodec, FutureVersionAndCorruptionAreDistinct) {
  auto blob = encode_image(sample_image());
  ASSERT_GE(blob.size(), 8u);

  auto future = blob;
  future[7] = 0x7F;  // header: magic "MIGR" + big-endian version word
  EXPECT_THROW((void)decode_image(future), MigrationVersionError);

  auto corrupt = blob;
  corrupt[blob.size() / 2] ^= 0x5A;
  try {
    (void)decode_image(corrupt);
    FAIL() << "corrupted image accepted";
  } catch (const MigrationVersionError&) {
    FAIL() << "corruption misreported as future-versioned";
  } catch (const MigrationError&) {
  }

  // Truncations anywhere must throw cleanly, never crash or over-read.
  for (std::size_t len = 0; len < blob.size(); len += 7) {
    EXPECT_THROW(
        (void)decode_image(std::span<const std::uint8_t>(blob.data(), len)),
        MigrationError)
        << "prefix length " << len;
  }
}

TEST(MigrationImageCodec, MutatedImagesThrowCleanly) {
  const auto blob = encode_image(sample_image());
  sim::Xoshiro256ss rng(2024);
  for (int round = 0; round < 300; ++round) {
    auto mutant = blob;
    const int flips = 1 + static_cast<int>(rng.next() % 4);
    for (int f = 0; f < flips; ++f)
      mutant[rng.next() % mutant.size()] ^= static_cast<std::uint8_t>(
          1u << (rng.next() % 8));
    try {
      const auto out = decode_image(mutant);
      // Surviving a mutation is fine (e.g. the flip cancelled out) as long
      // as the result is structurally sane.
      EXPECT_FALSE(out.tenant.spec.name.empty());
    } catch (const MigrationError&) {
      // Every rejected mutant must land here — anything else (bad_alloc
      // from a hostile length, a raw XdrError) is a bug.
    }
  }
}

// ------------------------- atomic device merge ------------------------------

TEST(DeviceRestoreMerge, RefusalLeavesDeviceUntouched) {
  // Donor device builds a realistic snapshot: an allocation, a module, and
  // a function handle into it.
  std::atomic<std::uint64_t> donor_execs{0};
  auto donor_node = cuda::GpuNode::make_a100();
  register_mark(donor_node->registry(), &donor_execs);
  auto& donor = donor_node->device(0);
  const auto ptr = donor.malloc(512);
  donor.memset(ptr, 0x5A, 512);
  const auto mod = donor.load_module(fatbin::cubin_serialize(mark_image()));
  const auto fn = donor.get_function(mod, "mig_mark");
  const auto snap = donor.snapshot();

  std::atomic<std::uint64_t> execs{0};
  auto host_node = cuda::GpuNode::make_a100();
  register_mark(host_node->registry(), &execs);
  auto& host = host_node->device(0);
  const auto bytes_before = host.memory().bytes_in_use();
  const auto count_before = host.memory().allocation_count();

  // The poisoned record sits at the END of the validation order (function
  // resolution), after the allocations and modules it rides with have all
  // passed their checks — exactly where a validate-as-you-mutate merge
  // would leave half the snapshot behind.
  auto bad = snap;
  ASSERT_FALSE(bad.functions.empty());
  bad.functions[0].kernel_name = "no_such_kernel";
  EXPECT_THROW(host.restore_merge(bad), gpusim::DeviceError);
  EXPECT_EQ(host.memory().bytes_in_use(), bytes_before);
  EXPECT_EQ(host.memory().allocation_count(), count_before);

  // Nothing (module included) landed: the intact snapshot still merges
  // collision-free, and the merged function handle is live.
  host.restore_merge(snap);
  EXPECT_EQ(host.memory().allocation_count(), count_before + 1);
  (void)host.launch(fn, {1, 1, 1}, {1, 1, 1}, 0, 0, mark_params(1));
  host.device_synchronize();
  EXPECT_EQ(execs.load(), 1u);
}

TEST(DeviceRestoreMerge, MultiSnapshotMergeIsAllOrNothing) {
  auto donor_node = cuda::GpuNode::make_a100();
  auto& donor = donor_node->device(0);
  (void)donor.malloc(512);
  const auto good = donor.snapshot();

  auto host_node = cuda::GpuNode::make_a100();
  auto& host = host_node->device(0);

  // Second snapshot collides with the first (same addresses, same ids):
  // the batch must refuse wholesale, leaving no trace of the first.
  const gpusim::DeviceSnapshot* both[] = {&good, &good};
  EXPECT_THROW(
      host.restore_merge(std::span<const gpusim::DeviceSnapshot* const>(both)),
      gpusim::DeviceError);
  EXPECT_EQ(host.memory().allocation_count(), 0u);

  // The same snapshot alone is fine — the refusal above really was the
  // cross-snapshot check, not a bad image.
  const gpusim::DeviceSnapshot* one[] = {&good};
  host.restore_merge(std::span<const gpusim::DeviceSnapshot* const>(one));
  EXPECT_EQ(host.memory().allocation_count(), 1u);
}

// --------------------------- adoption staging -------------------------------

TEST(AdoptionStaging, BundlesAreKeyedByClientIdentity) {
  auto node = cuda::GpuNode::make_a100();
  CricketServer server(*node);
  SessionExport a;
  a.session_id = 1;
  a.client_id = 111;
  SessionExport b;
  b.session_id = 2;
  b.client_id = 222;
  std::vector<SessionExport> bundles;
  bundles.push_back(std::move(a));
  bundles.push_back(std::move(b));
  server.stage_adoption("alice", std::move(bundles));

  // Neither a wrong tenant nor a wrong client identity can claim a bundle.
  EXPECT_FALSE(server.take_adoption("bob", 111).has_value());
  EXPECT_FALSE(server.take_adoption("alice", 999).has_value());
  // Reconnect order is the clients', not the staging order: the
  // second-staged client arriving first still gets its own bundle.
  const auto for_b = server.take_adoption("alice", 222);
  ASSERT_TRUE(for_b.has_value());
  EXPECT_EQ(for_b->session_id, 2u);
  const auto for_a = server.take_adoption("alice", 111);
  ASSERT_TRUE(for_a.has_value());
  EXPECT_EQ(for_a->session_id, 1u);
  EXPECT_FALSE(server.take_adoption("alice", 111).has_value());
}

// ------------------------- transfer protocol ------------------------------

TEST(MigrationTargetProtocol, BoundsAndOrderingEnforcedBeforeBuffering) {
  auto node = cuda::GpuNode::make_a100();
  CricketServer server(*node);  // no SessionManager on purpose
  MigrationTarget target(server, {.max_image_bytes = 1024});

  // Hostile declared sizes die in mig_begin, before any allocation.
  EXPECT_EQ(target.begin("", U(10)).err, kMigBadImage);
  EXPECT_EQ(target.begin("alice", U(0)).err, kMigTooLarge);
  EXPECT_EQ(target.begin("alice", U(1025)).err, kMigTooLarge);
  EXPECT_EQ(target.begin("alice", U(~0ull)).err, kMigTooLarge);

  const auto opened = target.begin("alice", U(8));
  ASSERT_EQ(opened.err, kMigOk);
  const std::vector<std::uint8_t> half = {1, 2, 3, 4};

  EXPECT_EQ(target.chunk(U(opened.ticket + 99), U(0), half), kMigBadTicket);
  EXPECT_EQ(target.chunk(U(opened.ticket), U(4), half), kMigOutOfOrder);  // gap
  ASSERT_EQ(target.chunk(U(opened.ticket), U(0), half), kMigOk);
  // Retransmission of an already-received range is acknowledged, not
  // re-appended; a half-overlapping one is refused.
  EXPECT_EQ(target.chunk(U(opened.ticket), U(0), half), kMigOk);
  EXPECT_EQ(target.chunk(U(opened.ticket), U(2), half), kMigOutOfOrder);
  // Running past the declared total is refused.
  EXPECT_EQ(target.chunk(U(opened.ticket), U(4), {1, 2, 3, 4, 5}), kMigOverrun);
  // Committing before all bytes arrived is refused.
  EXPECT_EQ(target.commit(U(opened.ticket), 0), kMigOutOfOrder);
  ASSERT_EQ(target.chunk(U(opened.ticket), U(4), half), kMigOk);

  std::vector<std::uint8_t> all = {1, 2, 3, 4, 1, 2, 3, 4};
  EXPECT_EQ(target.commit(U(opened.ticket), fnv64(all) ^ 1), kMigChecksum);
  // Checksum fine, but this server has no SessionManager to import into.
  EXPECT_EQ(target.commit(U(opened.ticket), fnv64(all)), kMigNoTenants);
  EXPECT_EQ(target.committed_count(), 0u);

  // Aborting unknown tickets is a retry-safe no-op.
  EXPECT_EQ(target.abort(U(12345)), kMigOk);
  EXPECT_EQ(target.abort(U(opened.ticket)), kMigOk);
  EXPECT_EQ(target.chunk(U(opened.ticket), U(0), half), kMigBadTicket);
}

TEST(MigrationTargetProtocol, ChunkOffsetNearU64MaxSaturatesAndIsRefused) {
  auto node = cuda::GpuNode::make_a100();
  CricketServer server(*node);
  MigrationTarget target(server, {.max_image_bytes = 1024});
  const auto opened = target.begin("alice", U(64));
  ASSERT_EQ(opened.err, kMigOk);
  const std::vector<std::uint8_t> chunk(16, 0x11);
  ASSERT_EQ(target.chunk(U(opened.ticket), U(0), chunk), kMigOk);

  // An offset near UINT64_MAX is neither the append position nor inside an
  // already-received range, so it is refused — and because the offset never
  // leaves the taint domain, the duplicate-range comparison
  // `offset + data.size() <= received` saturates rather than wrapping to a
  // small value that could masquerade as an acknowledged retransmission.
  EXPECT_EQ(target.chunk(U(opened.ticket), U(~0ull - 8), chunk),
            kMigOutOfOrder);

  // The transfer is undamaged and resumable at the true append position.
  EXPECT_EQ(target.chunk(U(opened.ticket), U(16), chunk), kMigOk);
  EXPECT_EQ(target.abort(U(opened.ticket)), kMigOk);
}

TEST(MigrationTargetProtocol, ConcurrentTransfersAreBounded) {
  auto node = cuda::GpuNode::make_a100();
  CricketServer server(*node);
  MigrationTarget target(
      server, {.max_image_bytes = 1024, .max_pending_transfers = 2});

  const auto t1 = target.begin("alice", U(8));
  ASSERT_EQ(t1.err, kMigOk);
  ASSERT_EQ(target.begin("bob", U(8)).err, kMigOk);
  EXPECT_EQ(target.pending_count(), 2u);
  // A third open ticket would let abandoned transfers pin unbounded buffer
  // space; it is refused before anything is allocated.
  EXPECT_EQ(target.begin("carol", U(8)).err, kMigBusy);
  // Aborting one frees its slot.
  EXPECT_EQ(target.abort(U(t1.ticket)), kMigOk);
  EXPECT_EQ(target.pending_count(), 1u);
  EXPECT_EQ(target.begin("carol", U(8)).err, kMigOk);
}

struct TargetImportFixture : ::testing::Test {
  TargetImportFixture()
      : node(cuda::GpuNode::make_paper_testbed()),
        tenants(node->clock(),
                {.device_count =
                     static_cast<std::uint32_t>(node->device_count()),
                 .default_tenant = ""}) {
    core::ServerOptions options;
    options.tenants = &tenants;
    server = std::make_unique<CricketServer>(*node, options);
    target = std::make_unique<MigrationTarget>(*server);
  }

  std::int32_t upload(const std::vector<std::uint8_t>& blob,
                      std::uint64_t* ticket_out = nullptr) {
    const auto opened = target->begin("alice", U(blob.size()));
    if (opened.err != kMigOk) return opened.err;
    if (ticket_out != nullptr) *ticket_out = opened.ticket;
    const auto err = target->chunk(U(opened.ticket), U(0), blob);
    if (err != kMigOk) return err;
    return target->commit(U(opened.ticket), fnv64(blob));
  }

  std::unique_ptr<cuda::GpuNode> node;
  tenancy::SessionManager tenants;
  std::unique_ptr<CricketServer> server;
  std::unique_ptr<MigrationTarget> target;
};

TEST_F(TargetImportFixture, CommitImportsPinsAndIsIdempotent) {
  auto img = sample_image();
  img.sessions.clear();  // quota import only; device merge is exercised e2e
  std::uint64_t ticket = 0;
  ASSERT_EQ(upload(encode_image(img), &ticket), kMigOk);
  EXPECT_EQ(target->committed_count(), 1u);

  const auto alice = tenants.find("alice");
  ASSERT_TRUE(alice.has_value());
  // Quota, accounting, and bucket state came across.
  EXPECT_EQ(tenants.stats(*alice).mem_used_bytes, 99u);
  EXPECT_EQ(tenants.stats(*alice).calls_admitted, 101u);
  // Pinned to the reserved spare: the node's last device.
  EXPECT_EQ(tenants.shard_device(*alice),
            static_cast<std::uint32_t>(node->device_count()) - 1);

  // Lost-reply re-commit: success again, nothing imported twice.
  EXPECT_EQ(target->commit(U(ticket), 0), kMigOk);
  EXPECT_EQ(target->committed_count(), 1u);
  // Abort after commit tells the coordinator the tenant lives here.
  EXPECT_EQ(target->abort(U(ticket)), kMigCommitted);
}

TEST_F(TargetImportFixture, BadAndFutureImagesRefusedAtCommit) {
  // Image names a different tenant than the ticket was opened for.
  auto img = sample_image();
  img.sessions.clear();
  img.tenant.spec.name = "mallory";
  EXPECT_EQ(upload(encode_image(img)), kMigBadImage);

  // Future-versioned image: the distinct upgrade-ordering error.
  auto future = encode_image(sample_image());
  future[7] = 0x7F;
  EXPECT_EQ(upload(future), kMigVersion);

  // Garbage: generic refusal.
  std::vector<std::uint8_t> junk(64, 0xAA);
  EXPECT_EQ(upload(junk), kMigBadImage);
  EXPECT_EQ(target->committed_count(), 0u);
  EXPECT_FALSE(tenants.find("alice").has_value());
}

TEST_F(TargetImportFixture, CollidingSessionRefusesWholeImageAtomically) {
  // Discover the pinned device's heap base with a scratch allocation.
  auto& dev = node->device(node->device_count() - 1);
  const auto base = dev.malloc(4);
  dev.free(base);

  auto img = sample_image();
  img.sessions.clear();
  core::SessionExport s1;
  s1.session_id = 1;
  s1.client_id = 11;
  s1.state.next_id = 1;
  s1.state.allocations.push_back({base, 4, {1, 2, 3, 4}});
  core::SessionExport s2;
  s2.session_id = 2;
  s2.client_id = 22;
  s2.state.next_id = 1;
  // Overlaps s1's allocation once padded to allocator granularity — a
  // collision only visible ACROSS the image's sessions, and only after s1
  // passed validation. The whole image must refuse with s1 rolled off (or
  // rather: never applied to) the device.
  s2.state.allocations.push_back({base + 128, 4, {5, 6, 7, 8}});
  img.sessions.push_back(std::move(s1));
  img.sessions.push_back(std::move(s2));

  EXPECT_EQ(upload(encode_image(img)), kMigDevice);
  EXPECT_EQ(dev.memory().allocation_count(), 0u);
  EXPECT_EQ(target->committed_count(), 0u);
  // The tenant was not registered either: commit is all-or-nothing.
  EXPECT_FALSE(tenants.find("alice").has_value());
}

// ----------------------- end-to-end two-server fleet ------------------------

rpc::RetryPolicy deep_retry(std::chrono::nanoseconds attempt_timeout = 150ms) {
  rpc::RetryPolicy retry;
  retry.enabled = true;
  retry.max_attempts = 24;
  retry.attempt_timeout = attempt_timeout;
  retry.deadline = 120s;  // generous: TSan runs are slow
  return retry;
}

/// Two full servers with independent nodes and SessionManagers, linked by a
/// RedirectingConnector the coordinator flips at commit. Every dial spawns a
/// fresh serve thread; links optionally run through FaultyTransport (the
/// c2s member faults requests, s2c faults replies, per server).
struct MigrateFixture : ::testing::Test {
  MigrateFixture()
      : source_node(cuda::GpuNode::make_paper_testbed()),
        target_node(cuda::GpuNode::make_paper_testbed()),
        source_tenants(source_node->clock(),
                       {.device_count = static_cast<std::uint32_t>(
                            source_node->device_count()),
                        .default_tenant = ""}),
        target_tenants(target_node->clock(),
                       {.device_count = static_cast<std::uint32_t>(
                            target_node->device_count()),
                        .default_tenant = ""}) {
    register_mark(source_node->registry(), &source_execs);
    register_mark(target_node->registry(), &target_execs);
    core::ServerOptions so;
    so.tenants = &source_tenants;
    // At-most-once is required by every retrying client below, and the
    // exactly-once-across-the-flip assertions hinge on migrating its cache.
    so.at_most_once = true;
    source_server = std::make_unique<CricketServer>(*source_node, so);
    core::ServerOptions to;
    to.tenants = &target_tenants;
    to.at_most_once = true;
    target_server = std::make_unique<CricketServer>(*target_node, to);
    redirect = std::make_unique<RedirectingConnector>(source_factory());
  }

  ~MigrateFixture() override {
    apis.clear();
    mig_client.reset();
    if (mig_thread.joinable()) mig_thread.join();
    std::vector<std::thread> pending;
    {
      const std::lock_guard<std::mutex> lock(threads_mu);
      pending.swap(threads);
    }
    for (auto& t : pending)
      if (t.joinable()) t.join();
  }

  using Faults = std::optional<faultnet::FaultSpec>;

  RedirectingConnector::Factory link_factory(CricketServer& server,
                                             const Faults* c2s,
                                             const Faults* s2c) {
    return [this, &server, c2s, s2c]() -> std::unique_ptr<rpc::Transport> {
      auto [client_end, server_end] = rpc::make_pipe_pair();
      std::unique_ptr<rpc::Transport> c = std::move(client_end);
      std::unique_ptr<rpc::Transport> s = std::move(server_end);
      const std::uint64_t n = link_seq.fetch_add(1);
      if (c2s->has_value())
        c = std::make_unique<faultnet::FaultyTransport>(
            std::move(c), (*c2s)->with_seed((*c2s)->seed ^ (2 * n + 1)));
      if (s2c->has_value())
        s = std::make_unique<faultnet::FaultyTransport>(
            std::move(s), (*s2c)->with_seed((*s2c)->seed ^ (2 * n + 2)));
      {
        const std::lock_guard<std::mutex> lock(threads_mu);
        threads.push_back(server.serve_async(std::move(s)));
      }
      return c;
    };
  }

  RedirectingConnector::Factory source_factory() {
    return link_factory(*source_server, &source_c2s, &source_s2c);
  }
  RedirectingConnector::Factory target_factory() {
    return link_factory(*target_server, &target_c2s, &target_s2c);
  }

  tenancy::TenantId add_source(const std::string& name,
                               tenancy::TenantQuota quota = {}) {
    tenancy::TenantSpec spec;
    spec.name = name;
    spec.quota = quota;
    return source_tenants.register_tenant(spec);
  }

  RemoteCudaApi& connect(const std::string& tenant,
                         std::optional<rpc::RetryPolicy> retry = deep_retry()) {
    core::ClientConfig config;
    config.tenant = tenant;
    if (retry) config.retry = *retry;
    config.reconnect = redirect->factory();
    apis.push_back(std::make_unique<RemoteCudaApi>(
        redirect->dial(), source_node->clock(), std::move(config)));
    return *apis.back();
  }

  MigrationReport do_migrate(Faults control = std::nullopt,
                             MigrationOptions options = {}) {
    auto [client_end, server_end] = rpc::make_pipe_pair();
    std::unique_ptr<rpc::Transport> c = std::move(client_end);
    std::unique_ptr<rpc::Transport> s = std::move(server_end);
    if (control) {
      c = std::make_unique<faultnet::FaultyTransport>(
          std::move(c), control->with_seed(control->seed ^ 0xC0C0));
      s = std::make_unique<faultnet::FaultyTransport>(
          std::move(s), control->with_seed(control->seed ^ 0x50C0));
    }
    mig_target = std::make_unique<MigrationTarget>(*target_server);
    mig_thread = mig_target->serve_async(std::move(s));
    rpc::ClientOptions client_options;
    client_options.retry = deep_retry();
    mig_client = make_migrate_client(std::move(c), client_options);
    MigrationCoordinator coordinator(*source_server, *mig_client,
                                     redirect.get(), target_factory(),
                                     options);
    return coordinator.migrate("alice");
  }

  std::unique_ptr<cuda::GpuNode> source_node;
  std::unique_ptr<cuda::GpuNode> target_node;
  tenancy::SessionManager source_tenants;
  tenancy::SessionManager target_tenants;
  std::unique_ptr<CricketServer> source_server;
  std::unique_ptr<CricketServer> target_server;
  std::unique_ptr<RedirectingConnector> redirect;
  std::atomic<std::uint64_t> source_execs{0};
  std::atomic<std::uint64_t> target_execs{0};

  Faults source_c2s, source_s2c, target_c2s, target_s2c;
  std::atomic<std::uint64_t> link_seq{0};

  std::unique_ptr<MigrationTarget> mig_target;
  std::unique_ptr<rpc::RpcClient> mig_client;
  std::thread mig_thread;

  std::mutex threads_mu;
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<RemoteCudaApi>> apis;
};

TEST_F(MigrateFixture, DrainFreezeRepliesTypedRetryableAndPreDecode) {
  const auto alice = add_source("alice");
  auto& api = connect("alice", std::nullopt);  // no retry: see the raw reply
  int n = 0;
  ASSERT_EQ(api.get_device_count(n), Error::kSuccess);

  obs::Counter& decodes =
      obs::Registry::global().counter("cricket_rpc_args_decode_total", {});
  source_tenants.begin_drain(alice);
  const auto decodes_before = decodes.value();
  // The freeze answers with the typed migrating status, pre-decode.
  EXPECT_EQ(api.get_device_count(n), Error::kMigrating);
  EXPECT_EQ(decodes.value(), decodes_before);
  // Not sticky, and the connection survives the rejection.
  EXPECT_EQ(api.get_device_count(n), Error::kMigrating);
  source_tenants.end_drain(alice);
  EXPECT_EQ(api.get_device_count(n), Error::kSuccess);
}

TEST_F(MigrateFixture, RedirectingConnectorFlipsAtomically) {
  EXPECT_EQ(redirect->flips(), 0u);
  auto t1 = redirect->dial();  // lands on the source fleet
  ASSERT_NE(t1, nullptr);
  redirect->set_target(target_factory());
  EXPECT_EQ(redirect->flips(), 1u);
  auto t2 = redirect->dial();
  ASSERT_NE(t2, nullptr);
  t1->shutdown();
  t2->shutdown();
}

TEST_F(MigrateFixture, HappyPathPreservesDataHandlesQuotaExactlyOnce) {
  tenancy::TenantQuota quota;
  quota.device_mem_bytes = 8u << 20;
  add_source("alice", quota);
  auto& api = connect("alice");

  cuda::DevPtr buf = 0;
  ASSERT_EQ(api.malloc(buf, 4096), Error::kSuccess);
  std::vector<std::uint8_t> data(4096);
  sim::Xoshiro256ss rng(7);
  rng.fill_bytes(data);
  ASSERT_EQ(api.memcpy_h2d(buf, data), Error::kSuccess);
  cuda::ModuleId mod = 0;
  const auto image = fatbin::cubin_serialize(mark_image());
  ASSERT_EQ(api.module_load(mod, image), Error::kSuccess);
  cuda::FuncId fn = 0;
  ASSERT_EQ(api.module_get_function(fn, mod, "mig_mark"), Error::kSuccess);
  cuda::StreamId stream = 0;
  ASSERT_EQ(api.stream_create(stream), Error::kSuccess);
  cuda::EventId event = 0;
  ASSERT_EQ(api.event_create(event), Error::kSuccess);
  ASSERT_EQ(api.event_record(event, stream), Error::kSuccess);
  ASSERT_EQ(api.launch_kernel(fn, {1, 1, 1}, {1, 1, 1}, 0, 0, mark_params(1)),
            Error::kSuccess);
  ASSERT_EQ(api.device_synchronize(), Error::kSuccess);
  EXPECT_EQ(source_execs.load(), 1u);
  const auto used_before =
      source_tenants.stats(*source_tenants.find("alice")).mem_used_bytes;
  obs::Counter& redirects = obs::Registry::global().counter(
      "cricket_rpc_migrating_redirects_total", {});
  const auto redirects_before = redirects.value();

  const auto report = do_migrate();
  ASSERT_TRUE(report.committed) << report.error;
  EXPECT_EQ(report.phase, MigrationPhase::kFlip);
  EXPECT_EQ(report.sessions, 1u);
  EXPECT_GT(report.image_bytes, 4096u);  // at least the allocation contents
  EXPECT_GT(report.chunks, 0u);
  EXPECT_EQ(redirect->flips(), 1u);

  // The same client object keeps working: its next call is bounced with
  // kMigrating, reconnects through the flipped redirect, and lands on the
  // target — where the old pointer still holds the old bytes.
  std::vector<std::uint8_t> out(4096);
  ASSERT_EQ(api.memcpy_d2h(out, buf), Error::kSuccess);
  EXPECT_EQ(out, data);
  EXPECT_GT(redirects.value(), redirects_before);

  // Old module/function/stream/event handles survived the move.
  ASSERT_EQ(api.launch_kernel(fn, {1, 1, 1}, {1, 1, 1}, 0, 0, mark_params(2)),
            Error::kSuccess);
  ASSERT_EQ(api.device_synchronize(), Error::kSuccess);
  EXPECT_EQ(api.stream_synchronize(stream), Error::kSuccess);
  EXPECT_EQ(api.event_record(event, stream), Error::kSuccess);
  // Exactly-once: one launch ran on the source, one on the target, and the
  // migration re-executed nothing.
  EXPECT_EQ(source_execs.load(), 1u);
  EXPECT_EQ(target_execs.load(), 1u);

  // Quota state moved with the tenant and is still enforced.
  const auto alice2 = target_tenants.find("alice");
  ASSERT_TRUE(alice2.has_value());
  EXPECT_EQ(target_tenants.stats(*alice2).mem_used_bytes, used_before);
  EXPECT_EQ(target_tenants.shard_device(*alice2),
            static_cast<std::uint32_t>(target_node->device_count()) - 1);
  cuda::DevPtr big = 0;
  EXPECT_EQ(api.malloc(big, 16u << 20), Error::kQuotaExceeded);
}

TEST_F(MigrateFixture, RetryAcrossFlipIsAnsweredFromMigratedDrc) {
  // Deterministic lost-reply orchestration: the source->client link swallows
  // exactly the 4th reply — the launch below. The kernel executes on the
  // source, the client never hears about it, and by the time its retry goes
  // out the tenant has migrated. The retry must be answered from the
  // MIGRATED duplicate-request cache, not re-executed anywhere.
  source_s2c = faultnet::FaultSpec::parse("partition_after=3,partition_len=1");
  add_source("alice");
  // Long attempt timeout: the migration completes inside the client's first
  // wait, so the retry crosses the flip.
  auto& api = connect("alice", deep_retry(4s));

  cuda::DevPtr buf = 0;
  ASSERT_EQ(api.malloc(buf, 64), Error::kSuccess);  // reply 1
  cuda::ModuleId mod = 0;
  const auto image = fatbin::cubin_serialize(mark_image());
  ASSERT_EQ(api.module_load(mod, image), Error::kSuccess);  // reply 2
  cuda::FuncId fn = 0;
  ASSERT_EQ(api.module_get_function(fn, mod, "mig_mark"),
            Error::kSuccess);  // reply 3

  Error launch_err = Error::kRpcFailure;
  std::thread caller([&] {
    // Reply 4: swallowed by the partition window.
    launch_err = api.launch_kernel(fn, {1, 1, 1}, {1, 1, 1}, 0, 0,
                                   mark_params(7));
  });
  // Wait until the launch has executed server-side, then migrate while the
  // client is still waiting for the reply it will never get.
  while (source_execs.load() == 0) std::this_thread::sleep_for(1ms);
  const auto report = do_migrate();
  caller.join();

  ASSERT_TRUE(report.committed) << report.error;
  EXPECT_EQ(launch_err, Error::kSuccess);
  // DRC-verified exactly-once: the kernel ran exactly once, on the source;
  // the post-flip retry was satisfied from the migrated cache.
  EXPECT_EQ(source_execs.load(), 1u);
  EXPECT_EQ(target_execs.load(), 0u);

  // The adopted session is fully live on the target afterwards.
  ASSERT_EQ(api.launch_kernel(fn, {1, 1, 1}, {1, 1, 1}, 0, 0, mark_params(8)),
            Error::kSuccess);
  ASSERT_EQ(api.device_synchronize(), Error::kSuccess);
  EXPECT_EQ(target_execs.load(), 1u);
}

TEST_F(MigrateFixture, MultiSessionTenantAdoptionIsPerClient) {
  // Two clients of the same tenant. Client A's launch reply is swallowed
  // just before the migration, so its retry crosses the flip; client B
  // reconnects to the target FIRST. Adoption is keyed by client identity,
  // so B cannot be handed A's bundle — A's retry must still be answered
  // from A's migrated DRC entries, and each client must find its own
  // allocations on the target.
  source_s2c = faultnet::FaultSpec::parse("partition_after=3,partition_len=1");
  add_source("alice");
  auto& a = connect("alice", deep_retry(4s));
  auto& b = connect("alice");

  // B: two calls only — its link never reaches the partition window.
  cuda::DevPtr b_buf = 0;
  ASSERT_EQ(b.malloc(b_buf, 128), Error::kSuccess);
  const std::vector<std::uint8_t> b_data(128, 0xB0);
  ASSERT_EQ(b.memcpy_h2d(b_buf, b_data), Error::kSuccess);

  // A: replies 1-3 land; reply 4 (the launch) is swallowed.
  cuda::DevPtr a_buf = 0;
  ASSERT_EQ(a.malloc(a_buf, 128), Error::kSuccess);
  cuda::ModuleId mod = 0;
  ASSERT_EQ(a.module_load(mod, fatbin::cubin_serialize(mark_image())),
            Error::kSuccess);
  cuda::FuncId fn = 0;
  ASSERT_EQ(a.module_get_function(fn, mod, "mig_mark"), Error::kSuccess);
  Error launch_err = Error::kRpcFailure;
  std::thread caller([&] {
    launch_err =
        a.launch_kernel(fn, {1, 1, 1}, {1, 1, 1}, 0, 0, mark_params(7));
  });
  while (source_execs.load() == 0) std::this_thread::sleep_for(1ms);
  const auto report = do_migrate();
  ASSERT_TRUE(report.committed) << report.error;
  EXPECT_EQ(report.sessions, 2u);

  // B lands on the target first — while A is still waiting out its attempt
  // timeout. FIFO adoption by tenant name alone would hand B the bundle
  // staged for A here.
  std::vector<std::uint8_t> b_out(128);
  ASSERT_EQ(b.memcpy_d2h(b_out, b_buf), Error::kSuccess);
  EXPECT_EQ(b_out, b_data);

  caller.join();
  ASSERT_EQ(launch_err, Error::kSuccess);
  // Exactly-once: A's retry was satisfied from A's own migrated DRC.
  EXPECT_EQ(source_execs.load(), 1u);
  EXPECT_EQ(target_execs.load(), 0u);

  // A's session is fully adopted too: its allocation and handles are live.
  const std::vector<std::uint8_t> a_data(128, 0xA0);
  ASSERT_EQ(a.memcpy_h2d(a_buf, a_data), Error::kSuccess);
  std::vector<std::uint8_t> a_out(128);
  ASSERT_EQ(a.memcpy_d2h(a_out, a_buf), Error::kSuccess);
  EXPECT_EQ(a_out, a_data);
  ASSERT_EQ(a.launch_kernel(fn, {1, 1, 1}, {1, 1, 1}, 0, 0, mark_params(8)),
            Error::kSuccess);
  ASSERT_EQ(a.device_synchronize(), Error::kSuccess);
  EXPECT_EQ(target_execs.load(), 1u);
}

TEST_F(MigrateFixture, UnknownCommitOutcomeKeepsTenantFrozenUntilResolved) {
  add_source("alice");
  auto& api = connect("alice", std::nullopt);  // raw client: observes freeze
  int n = 0;
  ASSERT_EQ(api.get_device_count(n), Error::kSuccess);

  // Control link where only replies fault: begin (1) and chunk (2) answer
  // normally, then the partition swallows the commit reply and the next
  // five. Every REQUEST lands — the commit really does execute on the
  // target; only the coordinator's knowledge of it is lost.
  auto [client_end, server_end] = rpc::make_pipe_pair();
  std::unique_ptr<rpc::Transport> s =
      std::make_unique<faultnet::FaultyTransport>(
          std::move(server_end),
          faultnet::FaultSpec::parse("partition_after=2,partition_len=6"));
  mig_target = std::make_unique<MigrationTarget>(*target_server);
  mig_thread = mig_target->serve_async(std::move(s));
  rpc::ClientOptions co;
  co.retry.enabled = true;
  co.retry.max_attempts = 1;  // surface the lost reply as an exception
  co.retry.attempt_timeout = 250ms;
  mig_client = make_migrate_client(std::move(client_end), co);
  MigrationOptions options;
  options.resolve_attempts = 3;
  options.resolve_backoff = 1ms;
  MigrationCoordinator coordinator(*source_server, *mig_client, redirect.get(),
                                   target_factory(), options);

  // First attempt: commit reply lost, and all three mig_abort probes lost
  // too. The outcome is genuinely unknown — the coordinator must neither
  // flip nor unfreeze.
  const auto first = coordinator.migrate("alice");
  EXPECT_FALSE(first.committed);
  EXPECT_TRUE(first.ambiguous);
  EXPECT_EQ(first.phase, MigrationPhase::kTransfer);
  EXPECT_EQ(redirect->flips(), 0u);
  // The commit DID land: the tenant is registered on the target...
  EXPECT_TRUE(target_tenants.find("alice").has_value());
  // ...so resuming service on the source would be a split brain. The tenant
  // stays frozen instead.
  EXPECT_EQ(api.get_device_count(n), Error::kMigrating);

  // Once replies get through again, the same coordinator resolves the
  // remembered ticket — committed — and completes with the flip alone:
  // nothing is re-transferred, nothing re-imported.
  const auto second = coordinator.migrate("alice");
  ASSERT_TRUE(second.committed) << second.error;
  EXPECT_FALSE(second.ambiguous);
  EXPECT_EQ(redirect->flips(), 1u);
  EXPECT_EQ(mig_target->committed_count(), 1u);
}

TEST_F(MigrateFixture, RefusedCommitReapsThePendingTransfer) {
  add_source("alice");
  auto& api = connect("alice");
  int n = 0;
  ASSERT_EQ(api.get_device_count(n), Error::kSuccess);

  // A target with no SessionManager refuses the commit with an error CODE,
  // not an exception. The coordinator must still reap its ticket — else the
  // buffered image stays pinned against max_pending_transfers forever.
  auto bare_node = cuda::GpuNode::make_a100();
  CricketServer bare(*bare_node);
  MigrationTarget target(bare);
  auto [client_end, server_end] = rpc::make_pipe_pair();
  auto serve = target.serve_async(std::move(server_end));
  {
    rpc::ClientOptions co;
    co.retry = deep_retry();
    auto client = make_migrate_client(std::move(client_end), co);
    MigrationCoordinator coordinator(*source_server, *client, nullptr, {});
    const auto report = coordinator.migrate("alice");
    EXPECT_FALSE(report.committed);
    EXPECT_FALSE(report.ambiguous);
    EXPECT_EQ(report.phase, MigrationPhase::kTransfer);
    EXPECT_EQ(target.pending_count(), 0u);
    EXPECT_EQ(target.committed_count(), 0u);
    // The abort also unfroze alice on the source.
    EXPECT_EQ(api.get_device_count(n), Error::kSuccess);
  }
  serve.join();
}

TEST_F(MigrateFixture, PipelinedChannelSurvivesMigration) {
  add_source("alice");
  core::ClientConfig config;
  config.pipeline.enabled = true;
  config.tenant = "alice";
  config.retry = deep_retry();
  config.reconnect = redirect->factory();
  apis.push_back(std::make_unique<RemoteCudaApi>(
      redirect->dial(), source_node->clock(), config));
  auto& api = *apis.back();

  cuda::ModuleId mod = 0;
  const auto image = fatbin::cubin_serialize(mark_image());
  ASSERT_EQ(api.module_load(mod, image), Error::kSuccess);
  cuda::FuncId fn = 0;
  ASSERT_EQ(api.module_get_function(fn, mod, "mig_mark"), Error::kSuccess);

  // Fire-and-forget launches straddle the flip: some land before the
  // freeze, some are bounced with kMigrating and resubmitted by the channel
  // through the flipped redirect.
  for (std::uint32_t i = 0; i < 4; ++i)
    ASSERT_EQ(api.launch_kernel(fn, {1, 1, 1}, {1, 1, 1}, 0, 0,
                                mark_params(i)),
              Error::kSuccess);
  const auto report = do_migrate();
  ASSERT_TRUE(report.committed) << report.error;
  for (std::uint32_t i = 4; i < 8; ++i)
    ASSERT_EQ(api.launch_kernel(fn, {1, 1, 1}, {1, 1, 1}, 0, 0,
                                mark_params(i)),
              Error::kSuccess);
  ASSERT_EQ(api.drain(), Error::kSuccess);
  // Exactly-once across the pipeline: every queued launch executed once,
  // wherever it landed.
  EXPECT_EQ(source_execs.load() + target_execs.load(), 8u);
  EXPECT_GT(target_execs.load(), 0u);
}

// Sustained client traffic while the tenant migrates, with the given fault
// mix on every client link (both directions, source and target). Asserts
// zero failed calls; with `kernels`, also exactly-once execution.
void run_faulted_migration(MigrateFixture& f, const faultnet::FaultSpec& spec,
                           bool kernels) {
  f.source_c2s = f.source_s2c = f.target_c2s = f.target_s2c = spec;
  f.add_source("alice");
  auto& api = f.connect("alice");

  cuda::FuncId fn = 0;
  if (kernels) {
    cuda::ModuleId mod = 0;
    const auto image = fatbin::cubin_serialize(mark_image());
    ASSERT_EQ(api.module_load(mod, image), Error::kSuccess);
    ASSERT_EQ(api.module_get_function(fn, mod, "mig_mark"), Error::kSuccess);
  }

  constexpr std::uint32_t kCalls = 30;
  std::atomic<std::uint32_t> completed{0};
  Error first_failure = Error::kSuccess;
  std::thread traffic([&] {
    for (std::uint32_t i = 0; i < kCalls; ++i) {
      Error err;
      if (kernels) {
        err = api.launch_kernel(fn, {1, 1, 1}, {1, 1, 1}, 0, 0,
                                mark_params(i));
      } else {
        int n = 0;
        err = api.get_device_count(n);
      }
      if (err != Error::kSuccess) {
        first_failure = err;
        break;
      }
      completed.fetch_add(1);
    }
  });

  // Let some calls land on the source first, then migrate mid-stream so the
  // faults hit the drain, transfer, and flip phases under live traffic.
  while (completed.load() < 5) std::this_thread::sleep_for(1ms);
  const auto report = f.do_migrate();
  traffic.join();

  EXPECT_EQ(first_failure, Error::kSuccess);
  EXPECT_EQ(completed.load(), kCalls);
  ASSERT_TRUE(report.committed) << report.error;
  if (kernels) {
    // Connection-preserving faults: the per-connection DRC plus the
    // migrated DRC keep every launch exactly-once.
    EXPECT_EQ(f.source_execs.load() + f.target_execs.load(), kCalls);
    EXPECT_GT(f.target_execs.load(), 0u);
  }
}

TEST_F(MigrateFixture, SurvivesDropsOnClientLinks) {
  run_faulted_migration(*this, faultnet::FaultSpec::parse("drop=0.15,seed=11"),
                        /*kernels=*/true);
}

TEST_F(MigrateFixture, SurvivesPartitionOnClientLinks) {
  run_faulted_migration(
      *this,
      faultnet::FaultSpec::parse("partition_after=8,partition_len=3,seed=12"),
      /*kernels=*/true);
}

TEST_F(MigrateFixture, SurvivesResetsOnClientLinks) {
  // Resets sever connections outright; the retry layer reconnects through
  // the redirect. Idempotent traffic only: a reset between execution and
  // reply on the SAME server re-executes on a fresh connection by design
  // (the DRC is per-connection), so exactly-once is asserted only for the
  // migration paths above.
  run_faulted_migration(*this, faultnet::FaultSpec::parse("reset=0.03,seed=13"),
                        /*kernels=*/false);
}

TEST_F(MigrateFixture, SurvivesDropsOnControlLink) {
  tenancy::TenantQuota quota;
  quota.device_mem_bytes = 1u << 20;
  add_source("alice", quota);
  auto& api = connect("alice");
  cuda::DevPtr buf = 0;
  ASSERT_EQ(api.malloc(buf, 256), Error::kSuccess);
  std::vector<std::uint8_t> data(256, 0x42);
  ASSERT_EQ(api.memcpy_h2d(buf, data), Error::kSuccess);

  // The coordinator's transfer channel drops messages; its retry layer plus
  // the target's duplicate-chunk tolerance and idempotent commit must land
  // the image exactly once.
  const auto report =
      do_migrate(faultnet::FaultSpec::parse("drop=0.2,seed=21"));
  ASSERT_TRUE(report.committed) << report.error;
  EXPECT_EQ(mig_target->committed_count(), 1u);

  std::vector<std::uint8_t> out(256);
  ASSERT_EQ(api.memcpy_d2h(out, buf), Error::kSuccess);
  EXPECT_EQ(out, data);
  const auto alice2 = target_tenants.find("alice");
  ASSERT_TRUE(alice2.has_value());
  EXPECT_EQ(target_tenants.stats(*alice2).mem_used_bytes, 256u);
}

TEST_F(MigrateFixture, DrainTimeoutAbortsAndSourceResumes) {
  const auto alice = add_source("alice");
  auto& api = connect("alice");
  int n = 0;
  ASSERT_EQ(api.get_device_count(n), Error::kSuccess);

  // Hold the tenant "in flight" artificially so the drain cannot quiesce.
  ASSERT_TRUE(source_tenants.admit_call(alice, 1).admitted);
  MigrationOptions options;
  options.drain_timeout = 50ms;
  const auto report = do_migrate(std::nullopt, options);
  EXPECT_FALSE(report.committed);
  EXPECT_EQ(report.phase, MigrationPhase::kDrain);
  EXPECT_EQ(redirect->flips(), 0u);
  source_tenants.complete_call(alice);

  // The abort unfroze the tenant: the source keeps serving as if nothing
  // happened, and nothing leaked onto the target.
  EXPECT_EQ(api.get_device_count(n), Error::kSuccess);
  EXPECT_FALSE(target_tenants.find("alice").has_value());
}

}  // namespace
}  // namespace cricket::migrate
