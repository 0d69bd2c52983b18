// Cross-module integration tests: the full stack assembled in the ways a
// deployment would assemble it — real TCP sockets, portmapper discovery,
// minitcp running through virtqueues, and failure injection.
#include <gtest/gtest.h>

#include <deque>
#include <thread>

#include "cricket/client.hpp"
#include "cricket/server.hpp"
#include "cudart/local_api.hpp"
#include "cudart/raii.hpp"
#include "env/environment.hpp"
#include "rpc/portmap.hpp"
#include "sim/rng.hpp"
#include "vnet/minitcp.hpp"
#include "vnet/virtqueue.hpp"
#include "workloads/histogram.hpp"
#include "workloads/kernels.hpp"

namespace cricket {
namespace {

using cuda::Error;

/// The Cricket program number, without dragging the generated header in.
constexpr std::uint32_t kCricketProg = 0x20000C81;

// ------------------------ Cricket over real TCP -----------------------------

TEST(FullStack, CricketOverLoopbackTcp) {
  auto node = cuda::GpuNode::make_a100();
  workloads::register_sample_kernels(node->registry());
  core::CricketServer server(*node);

  rpc::TcpListener listener;
  const auto port = listener.port();
  std::thread accept_thread([&] {
    auto conn = listener.accept();
    ASSERT_NE(conn, nullptr);
    server.serve(*conn);
  });

  {
    core::RemoteCudaApi api(rpc::TcpTransport::connect_loopback(port),
                            node->clock());
    int count = 0;
    ASSERT_EQ(api.get_device_count(count), Error::kSuccess);
    EXPECT_EQ(count, 1);

    cuda::DeviceBuffer buf(api, 1 << 20);
    sim::Xoshiro256ss rng(6);
    std::vector<std::uint8_t> data(1 << 20);
    rng.fill_bytes(data);
    buf.upload(data);
    std::vector<std::uint8_t> out(1 << 20);
    buf.download(out);
    EXPECT_EQ(out, data);
  }
  accept_thread.join();
}

TEST(FullStack, PortmapperDiscoversCricketServer) {
  // The deployment flow of Fig. 2: the GPU node's Cricket server registers
  // with the node's portmapper; a guest discovers the port and connects.
  auto node = cuda::GpuNode::make_a100();
  core::CricketServer cricket_server(*node);

  rpc::Portmapper pm;
  rpc::ServiceRegistry pm_registry;
  pm.register_into(pm_registry);
  rpc::TcpRpcServer pm_server(pm_registry, std::make_unique<rpc::TcpListener>());

  rpc::TcpListener cricket_listener;
  std::thread accept_thread([&] {
    auto conn = cricket_listener.accept();
    if (conn) cricket_server.serve(*conn);
  });
  {
    rpc::PortmapClient reg(
        rpc::TcpTransport::connect_loopback(pm_server.port()));
    ASSERT_TRUE(reg.set({kCricketProg, 1, rpc::kIpProtoTcp,
                         cricket_listener.port()}));
  }

  // Guest side: discover, then talk CUDA.
  rpc::PortmapClient discover(
      rpc::TcpTransport::connect_loopback(pm_server.port()));
  const auto port = discover.getport(kCricketProg, 1);
  ASSERT_NE(port, 0u);
  {
    core::RemoteCudaApi api(rpc::TcpTransport::connect_loopback(
                                static_cast<std::uint16_t>(port)),
                            node->clock());
    cuda::DevPtr p = 0;
    EXPECT_EQ(api.malloc(p, 256), Error::kSuccess);
    EXPECT_EQ(api.free(p), Error::kSuccess);
  }
  accept_thread.join();
}

// ----------------------- minitcp through virtqueues -------------------------

/// A guest TCP endpoint whose frames travel through real virtio rings: the
/// smoltcp-over-virtio data path of RustyHermit, assembled from our pieces.
struct VirtioTcpHarness {
  VirtioTcpHarness()
      : memory(1 << 22), tx_ring(memory, 64), rx_ring(memory, 64) {}

  /// Guest -> host frames go through tx_ring; host -> guest via rx_ring.
  void guest_emit(std::vector<std::uint8_t> frame) {
    const std::span<const std::uint8_t> bufs[1] = {frame};
    const auto head = tx_ring.add_chain(bufs, {});
    ASSERT_TRUE(head.has_value());
    tx_ring.kick(*head);
  }

  std::vector<std::vector<std::uint8_t>> drain_tx() {
    std::vector<std::vector<std::uint8_t>> frames;
    while (auto chain = tx_ring.pop_avail()) {
      frames.push_back(tx_ring.gather(*chain));
      tx_ring.push_used(chain->head, 0);
      const auto used = tx_ring.take_used();
      tx_ring.recycle(used->first);
    }
    return frames;
  }

  vnet::GuestMemory memory;
  vnet::Virtqueue tx_ring;
  vnet::Virtqueue rx_ring;
};

TEST(FullStack, MiniTcpOverVirtqueues) {
  VirtioTcpHarness rings;

  vnet::TcpConfig guest_cfg;
  guest_cfg.local_ip = 0x0A000002;
  guest_cfg.remote_ip = 0x0A000001;
  guest_cfg.local_port = 40000;
  guest_cfg.remote_port = 50000;
  vnet::TcpConfig host_cfg;
  host_cfg.local_ip = 0x0A000001;
  host_cfg.remote_ip = 0x0A000002;
  host_cfg.local_port = 50000;
  host_cfg.remote_port = 40000;
  host_cfg.initial_seq = 9000;

  std::deque<std::vector<std::uint8_t>> to_guest;
  vnet::TcpConnection guest(guest_cfg, [&](std::vector<std::uint8_t> f) {
    rings.guest_emit(std::move(f));
  });
  vnet::TcpConnection host(host_cfg, [&](std::vector<std::uint8_t> f) {
    to_guest.push_back(std::move(f));
  });

  host.listen();
  sim::Nanos now = 0;
  guest.connect(now);
  // Pump: guest frames cross the TX ring to the host; host frames are
  // delivered directly (the host side needs no ring).
  for (int round = 0; round < 50; ++round) {
    for (auto& frame : rings.drain_tx()) host.on_frame(frame, now);
    while (!to_guest.empty()) {
      guest.on_frame(to_guest.front(), now);
      to_guest.pop_front();
    }
    now += sim::kMicrosecond;
    if (guest.state() == vnet::TcpState::kEstablished &&
        host.state() == vnet::TcpState::kEstablished && round > 2)
      break;
  }
  ASSERT_EQ(guest.state(), vnet::TcpState::kEstablished);

  sim::Xoshiro256ss rng(17);
  std::vector<std::uint8_t> payload(100'000);
  rng.fill_bytes(payload);
  guest.send(payload, now);
  for (int round = 0; round < 200; ++round) {
    for (auto& frame : rings.drain_tx()) host.on_frame(frame, now);
    while (!to_guest.empty()) {
      guest.on_frame(to_guest.front(), now);
      to_guest.pop_front();
    }
    now += sim::kMicrosecond;
  }
  EXPECT_EQ(host.take_received(), payload);
  EXPECT_GT(rings.tx_ring.kicks(), 10u);  // the data really crossed the ring
}

// ------------------------------ failure injection ---------------------------

TEST(FailureInjection, ServerDeathSurfacesAsRpcFailure) {
  auto node = cuda::GpuNode::make_a100();
  auto server = std::make_unique<core::CricketServer>(*node);
  auto [client_end, server_end] = rpc::make_pipe_pair();
  auto thread = server->serve_async(std::move(server_end));

  core::RemoteCudaApi api(std::move(client_end), node->clock());
  cuda::DevPtr p = 0;
  ASSERT_EQ(api.malloc(p, 64), Error::kSuccess);

  // Kill the connection (node drain / crash).
  api.disconnect();
  thread.join();

  EXPECT_EQ(api.free(p), Error::kRpcFailure);
  EXPECT_EQ(api.malloc(p, 64), Error::kRpcFailure);
}

TEST(FailureInjection, GarbageOnTheWireIsDroppedByServer) {
  const auto environment = env::make_environment(env::EnvKind::kUnikraft);
  auto node = cuda::GpuNode::make_a100();
  core::CricketServer server(*node);
  auto conn = env::connect(environment, node->clock());
  // Send bytes that are not a valid RPC record stream, then a clean close.
  const std::vector<std::uint8_t> junk = {0x80, 0x00, 0x00, 0x02, 0xFF, 0xEE};
  conn.guest->send(junk);
  conn.guest->shutdown();
  // The server must terminate the session gracefully, not crash.
  server.serve(*conn.server);
  SUCCEED();
}

TEST(FailureInjection, OomOnServerPropagatesCleanly) {
  auto node = cuda::GpuNode::make_a100();
  core::CricketServer server(*node);
  auto [client_end, server_end] = rpc::make_pipe_pair();
  auto thread = server.serve_async(std::move(server_end));
  {
    core::RemoteCudaApi api(std::move(client_end), node->clock());
    cuda::DevPtr p = 0;
    EXPECT_EQ(api.malloc(p, 1ull << 62), Error::kMemoryAllocation);
    // The session stays usable after the failed call.
    EXPECT_EQ(api.malloc(p, 1024), Error::kSuccess);
    EXPECT_EQ(api.free(p), Error::kSuccess);
  }
  thread.join();
}

// -------------------------- full workload over TCP --------------------------

TEST(FullStack, HistogramOverRealTcp) {
  auto node = cuda::GpuNode::make_a100();
  workloads::register_sample_kernels(node->registry());
  core::CricketServer server(*node);
  rpc::TcpListener listener;
  const auto port = listener.port();
  std::thread accept_thread([&] {
    auto conn = listener.accept();
    if (conn) server.serve(*conn);
  });
  {
    core::RemoteCudaApi api(rpc::TcpTransport::connect_loopback(port),
                            node->clock());
    workloads::HistogramConfig cfg;
    cfg.data_bytes = 1 << 18;
    cfg.iterations = 3;
    const auto report = workloads::run_histogram(
        api, node->clock(),
        env::make_environment(env::EnvKind::kNativeRust).flavor, cfg);
    EXPECT_TRUE(report.verified);
  }
  accept_thread.join();
}

}  // namespace
}  // namespace cricket
