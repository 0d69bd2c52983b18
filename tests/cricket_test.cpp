#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <numeric>
#include <thread>

#include "cricket/checkpoint.hpp"
#include "cricket/client.hpp"
#include "cricket/scheduler.hpp"
#include "cricket/server.hpp"
#include "cricket/transfer.hpp"
#include "cudart/raii.hpp"
#include "env/environment.hpp"
#include "fatbin/cubin.hpp"
#include "sim/rng.hpp"
#include "workloads/kernels.hpp"

namespace cricket::core {
namespace {

using cuda::Error;

fatbin::CubinImage saxpy_image() {
  fatbin::CubinImage img;
  img.sm_arch = 75;
  fatbin::KernelDescriptor k;
  k.name = "remote_saxpy";
  k.params = {{.size = 8, .align = 8, .is_pointer = true},
              {.size = 8, .align = 8, .is_pointer = true},
              {.size = 4, .align = 4, .is_pointer = false},
              {.size = 4, .align = 4, .is_pointer = false}};
  img.kernels.push_back(k);
  fatbin::GlobalSymbol g;
  g.name = "g_bias";
  g.size = 4;
  g.init = {0, 0, 128, 63};  // 1.0f little-endian
  img.globals.push_back(g);
  img.code = fatbin::make_pseudo_isa(256, 9);
  return img;
}

void register_saxpy(gpusim::KernelRegistry& reg) {
  reg.register_kernel("remote_saxpy", [](gpusim::LaunchContext& ctx) {
    const auto y = ctx.ptr_param(0);
    const auto x = ctx.ptr_param(1);
    const float a = ctx.param<float>(2);
    const auto n = ctx.param<std::uint32_t>(3);
    if (!ctx.timing_only()) {
      auto ys = ctx.mem_as<float>(y, n);
      auto xs = ctx.mem_as<float>(x, n);
      for (std::uint32_t i = 0; i < n; ++i) ys[i] += a * xs[i];
    }
    ctx.charge_flops(2.0 * n);
    ctx.charge_dram_bytes(12.0 * n);
  });
}

/// Full client<->server stack over an in-process pipe (no cost shaping):
/// exercises the generated stubs, the session, and the LocalCudaApi.
struct CricketFixture : ::testing::Test {
  CricketFixture()
      : node(cuda::GpuNode::make_paper_testbed()), server(*node) {
    register_saxpy(node->registry());
    auto [client_end, server_end] = rpc::make_pipe_pair();
    server_thread = server.serve_async(std::move(server_end));
    api = std::make_unique<RemoteCudaApi>(std::move(client_end),
                                          node->clock());
  }

  ~CricketFixture() override {
    api.reset();  // closes the connection; server session cleans up
    if (server_thread.joinable()) server_thread.join();
  }

  std::unique_ptr<cuda::GpuNode> node;
  CricketServer server;
  std::unique_ptr<RemoteCudaApi> api;
  std::thread server_thread;
};

TEST_F(CricketFixture, DeviceEnumerationForwarded) {
  int count = 0;
  ASSERT_EQ(api->get_device_count(count), Error::kSuccess);
  EXPECT_EQ(count, 4);
  cuda::DeviceInfo info;
  ASSERT_EQ(api->get_device_properties(info, 0), Error::kSuccess);
  EXPECT_EQ(info.name, "NVIDIA A100-SXM4-40GB");
  EXPECT_EQ(info.sm_arch, 80u);
}

TEST_F(CricketFixture, SetDeviceErrorsForwarded) {
  EXPECT_EQ(api->set_device(2), Error::kSuccess);
  EXPECT_EQ(api->set_device(17), Error::kInvalidDevice);
}

TEST_F(CricketFixture, MemoryRoundTripThroughRpc) {
  cuda::DevPtr p = 0;
  ASSERT_EQ(api->malloc(p, 4096), Error::kSuccess);
  std::vector<std::uint8_t> in(4096);
  std::iota(in.begin(), in.end(), std::uint8_t{0});
  ASSERT_EQ(api->memcpy_h2d(p, in), Error::kSuccess);
  std::vector<std::uint8_t> out(4096);
  ASSERT_EQ(api->memcpy_d2h(out, p), Error::kSuccess);
  EXPECT_EQ(out, in);
  EXPECT_EQ(api->free(p), Error::kSuccess);
  EXPECT_EQ(api->free(p), Error::kInvalidDevicePointer);
}

TEST_F(CricketFixture, RemoteKernelLaunchComputes) {
  cuda::Module mod(*api, fatbin::cubin_serialize(saxpy_image()));
  const auto fn = mod.function("remote_saxpy");

  constexpr std::uint32_t n = 512;
  cuda::DeviceBuffer x(*api, n * 4), y(*api, n * 4);
  std::vector<float> xs(n), ys(n, 10.0f);
  for (std::uint32_t i = 0; i < n; ++i) xs[i] = static_cast<float>(i);
  x.upload_values<float>(xs);
  y.upload_values<float>(ys);

  cuda::ParamPacker params;
  params.add_ptr(y).add_ptr(x).add(0.5f).add(n);
  ASSERT_EQ(api->launch_kernel(fn, {2, 1, 1}, {256, 1, 1}, 0,
                               gpusim::kDefaultStream, params.bytes()),
            Error::kSuccess);
  ASSERT_EQ(api->device_synchronize(), Error::kSuccess);
  const auto out = y.download_values<float>(n);
  for (std::uint32_t i = 0; i < n; ++i)
    EXPECT_FLOAT_EQ(out[i], 10.0f + 0.5f * static_cast<float>(i));
}

TEST_F(CricketFixture, ModuleGlobalAccessibleRemotely) {
  cuda::Module mod(*api, fatbin::cubin_serialize(saxpy_image()));
  const auto g = mod.global("g_bias");
  std::vector<std::uint8_t> bytes(4);
  ASSERT_EQ(api->memcpy_d2h(bytes, g), Error::kSuccess);
  float v;
  std::memcpy(&v, bytes.data(), 4);
  EXPECT_FLOAT_EQ(v, 1.0f);
}

TEST_F(CricketFixture, CompressedCubinUploadWorks) {
  // Ship the compressed form; the server decompresses before metadata
  // extraction (the paper's fatbin-decompression contribution, §3.3).
  const auto compressed =
      fatbin::lz_compress(fatbin::cubin_serialize(saxpy_image()));
  cuda::ModuleId mod = 0;
  ASSERT_EQ(api->module_load(mod, compressed), Error::kSuccess);
  cuda::FuncId fn = 0;
  EXPECT_EQ(api->module_get_function(fn, mod, "remote_saxpy"),
            Error::kSuccess);
  EXPECT_EQ(api->module_unload(mod), Error::kSuccess);
}

TEST_F(CricketFixture, GarbageModuleImageRejected) {
  cuda::ModuleId mod = 0;
  const std::vector<std::uint8_t> junk = {9, 9, 9, 9, 9};
  EXPECT_EQ(api->module_load(mod, junk), Error::kInvalidKernelImage);
}

TEST_F(CricketFixture, StreamsAndEventsForwarded) {
  cuda::StreamId s = 0;
  ASSERT_EQ(api->stream_create(s), Error::kSuccess);
  cuda::EventId e1 = 0, e2 = 0;
  ASSERT_EQ(api->event_create(e1), Error::kSuccess);
  ASSERT_EQ(api->event_create(e2), Error::kSuccess);
  ASSERT_EQ(api->event_record(e1, s), Error::kSuccess);
  ASSERT_EQ(api->event_record(e2, s), Error::kSuccess);
  ASSERT_EQ(api->event_synchronize(e2), Error::kSuccess);
  float ms = -1;
  ASSERT_EQ(api->event_elapsed_ms(ms, e1, e2), Error::kSuccess);
  EXPECT_GE(ms, 0.0f);
  EXPECT_EQ(api->event_destroy(e1), Error::kSuccess);
  EXPECT_EQ(api->event_destroy(e2), Error::kSuccess);
  EXPECT_EQ(api->stream_destroy(s), Error::kSuccess);
}

TEST_F(CricketFixture, ForwardedSolverSolvesSystem) {
  const int n = 32;
  sim::Xoshiro256ss rng(5);
  std::vector<float> A(static_cast<std::size_t>(n) * n);
  for (auto& v : A) v = rng.next_float() - 0.5f;
  for (int i = 0; i < n; ++i)
    A[static_cast<std::size_t>(i) * n + i] += static_cast<float>(n);
  std::vector<float> x_true(static_cast<std::size_t>(n));
  for (auto& v : x_true) v = rng.next_float();
  std::vector<float> b(static_cast<std::size_t>(n), 0.0f);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i)
      b[static_cast<std::size_t>(i)] +=
          A[static_cast<std::size_t>(j) * n + i] *
          x_true[static_cast<std::size_t>(j)];

  cuda::DeviceBuffer dA(*api, A.size() * 4), dB(*api, b.size() * 4),
      dPiv(*api, static_cast<std::size_t>(n) * 4), dInfo(*api, 4);
  dA.upload_values<float>(A);
  dB.upload_values<float>(b);
  ASSERT_EQ(api->solver_sgetrf(n, dA.get(), n, dPiv.get(), dInfo.get()),
            Error::kSuccess);
  ASSERT_EQ(api->solver_sgetrs(n, 1, dA.get(), n, dPiv.get(), dB.get(), n,
                               dInfo.get()),
            Error::kSuccess);
  const auto x = dB.download_values<float>(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                x_true[static_cast<std::size_t>(i)], 1e-2f);
}

TEST_F(CricketFixture, ApiCallAccountingMatchesClient) {
  cuda::DevPtr p = 0;
  (void)api->malloc(p, 64);
  (void)api->free(p);
  int c;
  (void)api->get_device_count(c);
  EXPECT_EQ(api->stats().api_calls, 3u);
  EXPECT_EQ(server.stats().rpcs.load(), 3u);
}

TEST_F(CricketFixture, EveryCallAdvancesVirtualTime) {
  const auto t0 = node->clock().now();
  int c;
  (void)api->get_device_count(c);
  EXPECT_GT(node->clock().now(), t0);
}

TEST(CricketSessionCleanup, DisconnectFreesLeakedResources) {
  auto node = cuda::GpuNode::make_a100();
  register_saxpy(node->registry());
  CricketServer server(*node);
  const auto base_allocs = node->device(0).memory().allocation_count();
  {
    auto [client_end, server_end] = rpc::make_pipe_pair();
    auto thread = server.serve_async(std::move(server_end));
    {
      RemoteCudaApi api(std::move(client_end), node->clock());
      cuda::DevPtr p = 0;
      ASSERT_EQ(api.malloc(p, 1024), Error::kSuccess);
      cuda::ModuleId mod = 0;
      ASSERT_EQ(api.module_load(
                    mod, fatbin::cubin_serialize(saxpy_image())),
                Error::kSuccess);
      cuda::StreamId s = 0;
      ASSERT_EQ(api.stream_create(s), Error::kSuccess);
      // Client "crashes" without freeing anything.
    }
    thread.join();
  }
  EXPECT_EQ(node->device(0).memory().allocation_count(), base_allocs);
}

TEST(CricketMultiClient, ConcurrentSessionsAreIsolated) {
  auto node = cuda::GpuNode::make_a100();
  register_saxpy(node->registry());
  CricketServer server(*node);

  constexpr int kClients = 6;
  std::vector<std::thread> serve_threads;
  std::vector<std::thread> client_threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    auto [client_end, server_end] = rpc::make_pipe_pair();
    serve_threads.push_back(server.serve_async(std::move(server_end)));
    client_threads.emplace_back([&, ce = std::move(client_end), c]() mutable {
      try {
        RemoteCudaApi api(std::move(ce), node->clock());
        cuda::DeviceBuffer buf(api, 1024);
        std::vector<std::uint8_t> data(1024,
                                       static_cast<std::uint8_t>(c + 1));
        buf.upload(data);
        std::vector<std::uint8_t> out(1024);
        buf.download(out);
        if (out != data) ++failures;
      } catch (...) {
        ++failures;
      }
    });
  }
  for (auto& t : client_threads) t.join();
  for (auto& t : serve_threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.stats().sessions.load(), static_cast<std::uint64_t>(kClients));
}

// ------------------------------- environments -------------------------------

TEST(CricketOverEnvironments, WorksOnEveryTableOneRow) {
  for (const auto& environment : env::all_environments()) {
    auto node = cuda::GpuNode::make_a100();
    register_saxpy(node->registry());
    CricketServer server(*node);
    auto conn = env::connect(environment, node->clock());
    auto thread = server.serve_async(std::move(conn.server));
    {
      RemoteCudaApi api(std::move(conn.guest), node->clock(),
                        ClientConfig{.flavor = environment.flavor,
                                     .profile = environment.profile});
      cuda::DeviceBuffer buf(api, 256);
      std::vector<std::uint8_t> data(256, 0x3C);
      buf.upload(data);
      std::vector<std::uint8_t> out(256);
      buf.download(out);
      EXPECT_EQ(out, data) << environment.name;
    }
    thread.join();
  }
}

// --------------------------------- scheduler --------------------------------

TEST(Scheduler, FifoNeverDelays) {
  sim::SimClock clock;
  KernelScheduler sched(SchedulerPolicy::kFifo, clock);
  sched.session_open(1);
  sched.session_open(2);
  sched.record_usage(1, 100 * sim::kMillisecond);
  EXPECT_EQ(sched.admit(1), 0);
}

TEST(Scheduler, FairShareDelaysTheHog) {
  sim::SimClock clock;
  KernelScheduler sched(SchedulerPolicy::kFairShare, clock,
                        /*quantum=*/sim::kMillisecond);
  sched.session_open(1);
  sched.session_open(2);
  sched.record_usage(1, 50 * sim::kMillisecond);  // session 1 hogs
  EXPECT_GT(sched.admit(1), 0);                   // hog waits
  EXPECT_EQ(sched.admit(2), 0);                   // laggard sails through
  const auto s = sched.stats(1);
  EXPECT_GT(s.total_wait_ns, 0);
}

TEST(Scheduler, SingleSessionNeverDelayed) {
  sim::SimClock clock;
  KernelScheduler sched(SchedulerPolicy::kFairShare, clock);
  sched.session_open(1);
  sched.record_usage(1, sim::kSecond);
  EXPECT_EQ(sched.admit(1), 0);
}

TEST(Scheduler, NewcomerStartsLevel) {
  sim::SimClock clock;
  KernelScheduler sched(SchedulerPolicy::kFairShare, clock,
                        sim::kMillisecond);
  sched.session_open(1);
  sched.record_usage(1, 100 * sim::kMillisecond);
  sched.session_open(2);  // late joiner starts at min(others)
  // Session 1 at 100ms, session 2 at 0... no: newcomer levels to min = 100ms.
  EXPECT_EQ(sched.admit(1), 0);
}

// --------------------------------- transfer ---------------------------------

TEST(Transfer, StripeCoversRangeExactly) {
  const auto parts = stripe(100, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], (std::pair<std::size_t, std::size_t>{0, 33}));
  EXPECT_EQ(parts[1], (std::pair<std::size_t, std::size_t>{33, 33}));
  EXPECT_EQ(parts[2], (std::pair<std::size_t, std::size_t>{66, 34}));
}

TEST(Transfer, StripedSendGatherRoundTrip) {
  auto [client, serverLanes] = make_lane_pairs(4);
  sim::SimClock clock;
  vnet::NetworkProfile profile;
  sim::Xoshiro256ss rng(8);
  std::vector<std::uint8_t> data(1 << 20);
  rng.fill_bytes(data);

  std::thread sender(
      [&] { send_striped(client, data, profile, clock); });
  std::vector<std::uint8_t> out(data.size());
  gather_striped(serverLanes, out);
  sender.join();
  EXPECT_EQ(out, data);
}

TEST(Transfer, ParallelSocketsCheaperThanSerialCharge) {
  sim::SimClock serial_clock, parallel_clock;
  vnet::NetworkProfile profile;
  profile.guest.per_packet_ns = 3000;
  profile.guest.copy_ns_per_byte = 0.05;
  const std::size_t bytes = 64 << 20;
  serial_clock.advance(vnet::tx_cpu_cost(profile, bytes) +
                       vnet::wire_time(profile, bytes));

  auto [client, serverLanes] = make_lane_pairs(8);
  std::vector<std::uint8_t> data(bytes, 1);
  std::thread drain([&] {
    std::vector<std::uint8_t> out(bytes);
    gather_striped(serverLanes, out);
  });
  send_striped(client, data, profile, parallel_clock);
  drain.join();
  EXPECT_LT(parallel_clock.now(), serial_clock.now());
}

TEST(CricketTransferMethods, ParallelSocketsTransferCorrectly) {
  auto node = cuda::GpuNode::make_a100();
  CricketServer server(*node);
  auto [client_end, server_end] = rpc::make_pipe_pair();
  auto [client_lanes, server_lanes] = make_lane_pairs(4);
  auto thread =
      server.serve_async(std::move(server_end), std::move(server_lanes));
  {
    ClientConfig cfg;
    cfg.transfer = TransferMethod::kParallelSockets;
    RemoteCudaApi api(std::move(client_end), node->clock(), cfg,
                      std::move(client_lanes));
    sim::Xoshiro256ss rng(13);
    std::vector<std::uint8_t> data(2 << 20);
    rng.fill_bytes(data);
    cuda::DevPtr p = 0;
    ASSERT_EQ(api.malloc(p, data.size()), Error::kSuccess);
    ASSERT_EQ(api.memcpy_h2d(p, data), Error::kSuccess);
    std::vector<std::uint8_t> out(data.size());
    ASSERT_EQ(api.memcpy_d2h(out, p), Error::kSuccess);
    EXPECT_EQ(out, data);
    (void)api.free(p);
  }
  thread.join();
}

TEST(CricketTransferMethods, SharedMemoryIsZeroRpc) {
  auto node = cuda::GpuNode::make_a100();
  CricketServer server(*node);
  auto [client_end, server_end] = rpc::make_pipe_pair();
  auto thread = server.serve_async(std::move(server_end));
  {
    ClientConfig cfg;
    cfg.transfer = TransferMethod::kSharedMemory;
    cfg.local_node = node.get();
    RemoteCudaApi api(std::move(client_end), node->clock(), cfg);
    cuda::DevPtr p = 0;
    ASSERT_EQ(api.malloc(p, 1024), Error::kSuccess);
    const auto rpcs_before = server.stats().rpcs.load();
    std::vector<std::uint8_t> data(1024, 0x66);
    ASSERT_EQ(api.memcpy_h2d(p, data), Error::kSuccess);
    std::vector<std::uint8_t> out(1024);
    ASSERT_EQ(api.memcpy_d2h(out, p), Error::kSuccess);
    EXPECT_EQ(out, data);
    // Bulk data did not cross the RPC channel at all.
    EXPECT_EQ(server.stats().rpcs.load(), rpcs_before);
    (void)api.free(p);
  }
  thread.join();
}

// ----------------------------- checkpoint/restart ---------------------------

struct TempDir {
  TempDir() {
    path = std::filesystem::temp_directory_path() /
           ("cricket_ckpt_" + std::to_string(::getpid()));
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::filesystem::path path;
};

TEST(Checkpoint, EncodeDecodeRoundTrip) {
  auto node = cuda::GpuNode::make_a100();
  register_saxpy(node->registry());
  auto& dev = node->device(0);
  const auto p = dev.malloc(512);
  dev.memset(p, 0x5A, 512);
  const auto mod = dev.load_module(fatbin::cubin_serialize(saxpy_image()));
  (void)dev.get_function(mod, "remote_saxpy");

  const auto snap = dev.snapshot();
  const auto decoded = decode_checkpoint(encode_checkpoint(snap));
  EXPECT_EQ(decoded.allocations.size(), snap.allocations.size());
  EXPECT_EQ(decoded.modules.size(), snap.modules.size());
  EXPECT_EQ(decoded.functions.size(), snap.functions.size());
  EXPECT_EQ(decoded.next_id, snap.next_id);
}

TEST(Checkpoint, CorruptFileRejected) {
  const std::vector<std::uint8_t> junk = {'C', 'K', 'P', 'T', 0, 0, 0, 9};
  EXPECT_THROW((void)decode_checkpoint(junk), CheckpointError);
  const std::vector<std::uint8_t> junk2 = {'X', 'X', 'X', 'X'};
  EXPECT_THROW((void)decode_checkpoint(junk2), CheckpointError);
}

TEST(Checkpoint, RestoreIntoFreshDevicePreservesEverything) {
  TempDir tmp;
  auto node1 = cuda::GpuNode::make_a100();
  register_saxpy(node1->registry());
  auto& dev1 = node1->device(0);

  const auto p = dev1.malloc(1024);
  std::vector<std::uint8_t> content(1024);
  sim::Xoshiro256ss rng(21);
  rng.fill_bytes(content);
  dev1.memcpy_h2d(p, content);
  const auto mod = dev1.load_module(fatbin::cubin_serialize(saxpy_image()));
  const auto fn = dev1.get_function(mod, "remote_saxpy");
  const auto file = (tmp.path / "dev.ckpt").string();
  checkpoint_to_file(dev1, file);

  // A brand-new server node restores: pointers and handles must be valid.
  auto node2 = cuda::GpuNode::make_a100();
  register_saxpy(node2->registry());
  auto& dev2 = node2->device(0);
  restore_from_file(dev2, file);

  std::vector<std::uint8_t> out(1024);
  dev2.memcpy_d2h(out, p);  // same pointer value works
  EXPECT_EQ(out, content);
  // The old function handle launches on the restored device.
  const auto x = dev2.malloc(4 * 4);
  const auto y = dev2.malloc(4 * 4);
  std::vector<float> xs = {1, 2, 3, 4}, ys = {0, 0, 0, 0};
  dev2.memcpy_h2d(x, {reinterpret_cast<std::uint8_t*>(xs.data()), 16});
  dev2.memcpy_h2d(y, {reinterpret_cast<std::uint8_t*>(ys.data()), 16});
  std::vector<std::uint8_t> params(24);
  std::memcpy(params.data(), &y, 8);
  std::memcpy(params.data() + 8, &x, 8);
  const float a = 2.0f;
  const std::uint32_t n = 4;
  std::memcpy(params.data() + 16, &a, 4);
  std::memcpy(params.data() + 20, &n, 4);
  dev2.launch(fn, {1, 1, 1}, {4, 1, 1}, 0, gpusim::kDefaultStream, params);
  dev2.stream_synchronize(gpusim::kDefaultStream);
  std::vector<float> result(4);
  dev2.memcpy_d2h({reinterpret_cast<std::uint8_t*>(result.data()), 16}, y);
  EXPECT_FLOAT_EQ(result[1], 4.0f);
}

TEST(Checkpoint, RestoreRequiresPristineDevice) {
  TempDir tmp;
  auto node = cuda::GpuNode::make_a100();
  auto& dev = node->device(0);
  (void)dev.malloc(64);
  const auto file = (tmp.path / "x.ckpt").string();
  checkpoint_to_file(dev, file);
  EXPECT_THROW(restore_from_file(dev, file), gpusim::DeviceError);
}

TEST(Checkpoint, RpcCheckpointRestoreEndToEnd) {
  TempDir tmp;
  auto node = cuda::GpuNode::make_a100();
  register_saxpy(node->registry());
  ServerOptions opts;
  opts.checkpoint_dir = tmp.path.string();
  std::vector<std::uint8_t> data(256, 0xAB);
  cuda::DevPtr p = 0;

  {
    CricketServer server(*node, opts);
    auto [client_end, server_end] = rpc::make_pipe_pair();
    auto thread = server.serve_async(std::move(server_end));
    {
      RemoteCudaApi api(std::move(client_end), node->clock());
      ASSERT_EQ(api.malloc(p, 256), Error::kSuccess);
      ASSERT_EQ(api.memcpy_h2d(p, data), Error::kSuccess);
      ASSERT_EQ(api.checkpoint("session.ckpt"), Error::kSuccess);
      // Path traversal is refused.
      EXPECT_EQ(api.checkpoint("../evil.ckpt"), Error::kInvalidValue);
      (void)api.free(p);  // avoid leak-cleanup freeing after restore
    }
    thread.join();
  }

  // Fresh node + server; restore over RPC, then read the old pointer.
  auto node2 = cuda::GpuNode::make_a100();
  register_saxpy(node2->registry());
  CricketServer server2(*node2, opts);
  auto [client_end, server_end] = rpc::make_pipe_pair();
  auto thread = server2.serve_async(std::move(server_end));
  {
    RemoteCudaApi api(std::move(client_end), node2->clock());
    ASSERT_EQ(api.restore("session.ckpt"), Error::kSuccess);
    std::vector<std::uint8_t> out(256);
    ASSERT_EQ(api.memcpy_d2h(out, p), Error::kSuccess);
    EXPECT_EQ(out, data);
  }
  thread.join();
}

// ------------------------ one client, serial or pipelined ------------------

/// The same CUDA sequence through RemoteCudaApi with pipelining off (the
/// paper's serial client) and on: every result and every api_calls / byte
/// stat must match, so each is pinned to one value for both modes.
class ClientModes : public ::testing::TestWithParam<bool> {
 protected:
  ~ClientModes() override {
    apis_.clear();  // closes the connections; the sessions end
    for (auto& t : threads_) t.join();
  }

  [[nodiscard]] static std::unique_ptr<cuda::GpuNode> make_node() {
    auto node = cuda::GpuNode::make_a100();
    workloads::register_sample_kernels(node->registry());
    return node;
  }

  [[nodiscard]] ServerOptions server_options() const {
    ServerOptions options;
    options.checkpoint_dir = tmp_.path.string();
    options.module_cache = true;
    if (GetParam()) options.serve.workers = 1;
    return options;
  }

  /// A client of `server` in the mode under test, with four lanes when
  /// `config` asks for parallel sockets.
  RemoteCudaApi& connect(cuda::GpuNode& node, CricketServer& server,
                         ClientConfig config = {}) {
    config.pipeline.enabled = GetParam();
    auto [client_end, server_end] = rpc::make_pipe_pair();
    TransferLanes client_lanes, server_lanes;
    if (config.transfer == TransferMethod::kParallelSockets)
      std::tie(client_lanes, server_lanes) = make_lane_pairs(4);
    threads_.push_back(
        server.serve_async(std::move(server_end), std::move(server_lanes)));
    apis_.push_back(std::make_unique<RemoteCudaApi>(
        std::move(client_end), node.clock(), std::move(config),
        std::move(client_lanes)));
    return *apis_.back();
  }

  TempDir tmp_;
  // The checkpoint is taken on node_ and restored on the pristine node2_.
  std::unique_ptr<cuda::GpuNode> node_ = make_node();
  std::unique_ptr<cuda::GpuNode> node2_ = make_node();
  CricketServer server_{*node_, server_options()};
  CricketServer server2_{*node2_, server_options()};
  std::vector<std::thread> threads_;
  std::vector<std::unique_ptr<RemoteCudaApi>> apis_;
};

TEST_P(ClientModes, SameSequenceSameResultsAndStats) {
  constexpr std::uint32_t n = 4096;
  constexpr std::uint64_t kBytes = n * 4;
  std::vector<float> a(n), b(n), sum(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    a[i] = static_cast<float>(i);
    b[i] = 0.5f * static_cast<float>(i);
    sum[i] = a[i] + b[i];
  }
  const auto as_bytes = [](const std::vector<float>& v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
    return std::vector<std::uint8_t>(p, p + v.size() * 4);
  };
  const auto image = workloads::sample_cubin();

  auto& api = connect(*node_, server_, ClientConfig{.module_cache = true});
  // Module load: the second load of the same image is a cache hit.
  cuda::ModuleId mod = 0, again = 0;
  ASSERT_EQ(api.module_load(mod, image), Error::kSuccess);
  ASSERT_EQ(api.module_load(again, image), Error::kSuccess);
  EXPECT_EQ(again, mod);
  cuda::FuncId fn = 0;
  ASSERT_EQ(api.module_get_function(fn, mod, workloads::kVectorAddKernel),
            Error::kSuccess);

  // malloc, H2D, vectorAdd, D2H compare.
  cuda::DevPtr da = 0, db = 0, dc = 0;
  ASSERT_EQ(api.malloc(da, kBytes), Error::kSuccess);
  ASSERT_EQ(api.malloc(db, kBytes), Error::kSuccess);
  ASSERT_EQ(api.malloc(dc, kBytes), Error::kSuccess);
  ASSERT_EQ(api.memcpy_h2d(da, as_bytes(a)), Error::kSuccess);
  ASSERT_EQ(api.memcpy_h2d(db, as_bytes(b)), Error::kSuccess);
  cuda::ParamPacker params;
  params.add_ptr(dc).add_ptr(da).add_ptr(db).add(n);
  ASSERT_EQ(api.launch_kernel(fn, {n / 256, 1, 1}, {256, 1, 1}, 0,
                              gpusim::kDefaultStream, params.bytes()),
            Error::kSuccess);
  std::vector<std::uint8_t> out(kBytes);
  ASSERT_EQ(api.memcpy_d2h(out, dc), Error::kSuccess);
  EXPECT_EQ(out, as_bytes(sum));

  ASSERT_EQ(api.checkpoint("modes.ckpt"), Error::kSuccess);
  EXPECT_EQ(api.drain(), Error::kSuccess);
  EXPECT_EQ(api.stats().api_calls, 11u);
  EXPECT_EQ(api.stats().pipelined, GetParam() ? 3u : 0u);
  EXPECT_EQ(api.stats().bytes_to_device, 2 * kBytes);
  EXPECT_EQ(api.stats().bytes_from_device, kBytes);
  EXPECT_EQ(api.stats().module_cache_hits, 1u);
  EXPECT_EQ(api.stats().module_bytes_saved, image.size());

  // A copy striped over parallel-socket lanes, on a second connection.
  auto& laned =
      connect(*node_, server_,
              ClientConfig{.transfer = TransferMethod::kParallelSockets});
  std::vector<std::uint8_t> data(1 << 20);
  sim::Xoshiro256ss(21).fill_bytes(data);
  cuda::DevPtr p = 0;
  ASSERT_EQ(laned.malloc(p, data.size()), Error::kSuccess);
  ASSERT_EQ(laned.memcpy_h2d(p, data), Error::kSuccess);
  std::vector<std::uint8_t> back(data.size());
  ASSERT_EQ(laned.memcpy_d2h(back, p), Error::kSuccess);
  EXPECT_EQ(back, data);
  EXPECT_EQ(laned.stats().api_calls, 3u);
  EXPECT_EQ(laned.stats().bytes_to_device, data.size());
  EXPECT_EQ(laned.stats().bytes_from_device, data.size());

  // Restore the checkpoint on the pristine node; the old pointer reads
  // back the sum.
  auto& restored = connect(*node2_, server2_);
  ASSERT_EQ(restored.restore("modes.ckpt"), Error::kSuccess);
  ASSERT_EQ(restored.memcpy_d2h(out, dc), Error::kSuccess);
  EXPECT_EQ(out, as_bytes(sum));
  EXPECT_EQ(restored.stats().api_calls, 2u);
  EXPECT_EQ(restored.stats().bytes_from_device, kBytes);
}

INSTANTIATE_TEST_SUITE_P(
    SerialAndPipelined, ClientModes, ::testing::Bool(),
    [](const ::testing::TestParamInfo<bool>& info) {
      return info.param ? "Pipelined" : "Serial";
    });

}  // namespace
}  // namespace cricket::core

// --------------------- checkpoint property & scheduler archive --------------

namespace cricket::core {
namespace {

/// Property: random device states survive checkpoint encode/decode/restore
/// with bit-identical memory contents.
class CheckpointProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckpointProperty, RandomDeviceStateRoundTrips) {
  sim::Xoshiro256ss rng(GetParam());
  auto node1 = cuda::GpuNode::make_a100();
  register_saxpy(node1->registry());
  auto& dev1 = node1->device(0);

  // Random allocation pattern with interleaved frees (creates holes, so
  // restore must place allocations at exact addresses, not just in order).
  std::vector<std::pair<gpusim::DevPtr, std::vector<std::uint8_t>>> live;
  std::vector<gpusim::DevPtr> all;
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t size = 1 + rng.next() % 10'000;
    const auto p = dev1.malloc(size);
    std::vector<std::uint8_t> content(size);
    rng.fill_bytes(content);
    dev1.memcpy_h2d(p, content);
    live.emplace_back(p, std::move(content));
    all.push_back(p);
  }
  // Free every third allocation.
  for (std::size_t i = 0; i < all.size(); i += 3) {
    dev1.free(all[i]);
    live.erase(std::find_if(live.begin(), live.end(), [&](const auto& e) {
      return e.first == all[i];
    }));
  }
  if (rng.next() % 2) {
    (void)dev1.load_module(fatbin::cubin_serialize(saxpy_image()));
  }

  const auto snap = dev1.snapshot();
  const auto restored = decode_checkpoint(encode_checkpoint(snap));

  auto node2 = cuda::GpuNode::make_a100();
  register_saxpy(node2->registry());
  auto& dev2 = node2->device(0);
  dev2.restore(restored);

  for (const auto& [ptr, content] : live) {
    std::vector<std::uint8_t> out(content.size());
    dev2.memcpy_d2h(out, ptr);
    EXPECT_EQ(out, content) << "allocation at " << std::hex << ptr;
  }
  EXPECT_EQ(dev2.memory().bytes_in_use(), dev1.memory().bytes_in_use());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

TEST(SchedulerArchive, StatsSurviveSessionClose) {
  sim::SimClock clock;
  KernelScheduler sched(SchedulerPolicy::kFairShare, clock);
  sched.session_open(7);
  (void)sched.admit(7);
  sched.record_usage(7, 42 * sim::kMillisecond);
  sched.session_close(7);
  const auto stats = sched.stats(7);
  EXPECT_EQ(stats.launches, 1u);
  EXPECT_EQ(stats.device_time_ns, 42 * sim::kMillisecond);
}

TEST(SchedulerArchive, UnknownSessionIsEmpty) {
  sim::SimClock clock;
  KernelScheduler sched(SchedulerPolicy::kFifo, clock);
  EXPECT_EQ(sched.stats(999).launches, 0u);
}

TEST(Scheduler, FairShareWaitIsCapped) {
  sim::SimClock clock;
  KernelScheduler sched(SchedulerPolicy::kFairShare, clock,
                        /*quantum=*/sim::kMillisecond);
  sched.session_open(1);
  sched.session_open(2);
  sched.record_usage(1, 10 * sim::kSecond);  // absurd lead
  // Work-conserving cap: one admit never waits more than a few quanta.
  EXPECT_LE(sched.admit(1), 4 * sim::kMillisecond);
}

}  // namespace
}  // namespace cricket::core
