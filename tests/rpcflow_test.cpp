// rpcflow: pipelined channel, small-call batcher, pipelined server loop, and
// the async Cricket client end-to-end.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "cricket/client.hpp"
#include "cricket/server.hpp"
#include "cudart/local_api.hpp"
#include "env/environment.hpp"
#include "rpc/record.hpp"
#include "rpc/rpc_msg.hpp"
#include "rpc/server.hpp"
#include "rpc/transport.hpp"
#include "rpcflow/batcher.hpp"
#include "rpcflow/channel.hpp"
#include "workloads/histogram.hpp"
#include "workloads/kernels.hpp"
#include "workloads/matrix_mul.hpp"

namespace cricket::rpcflow {
namespace {

using namespace std::chrono_literals;

constexpr std::uint32_t kProg = 0x20000002;
constexpr std::uint32_t kVers = 1;
constexpr std::uint32_t kProcAdd = 1;
constexpr std::uint32_t kProcDelayEcho = 2;  // (value, delay_ms) -> value
constexpr std::uint32_t kProcTrack = 3;      // concurrency probe

/// Counts transport sends without consuming them (batcher unit tests).
class RecordingTransport final : public rpc::Transport {
 public:
  void send(std::span<const std::uint8_t> data) override {
    std::lock_guard lock(mu_);
    ++sends_;
    bytes_ += data.size();
  }
  std::size_t recv(std::span<std::uint8_t>) override { return 0; }
  void shutdown() override {}

  [[nodiscard]] std::uint64_t sends() const {
    std::lock_guard lock(mu_);
    return sends_;
  }
  [[nodiscard]] std::uint64_t bytes() const {
    std::lock_guard lock(mu_);
    return bytes_;
  }

 private:
  mutable std::mutex mu_;
  std::uint64_t sends_ = 0;
  std::uint64_t bytes_ = 0;
};

std::vector<std::uint8_t> record_of(std::size_t n) {
  return std::vector<std::uint8_t>(n, 0xAB);
}

TEST(CallBatcherTest, DisabledSendsEachRecordImmediately) {
  RecordingTransport wire;
  CallBatcher batcher(wire, CallBatcher::Options{.enabled = false},
                      rpc::RecordWriter::kDefaultMaxFragment);
  batcher.append(record_of(40));
  batcher.append(record_of(40));
  batcher.append(record_of(40));
  EXPECT_EQ(wire.sends(), 3u);
  EXPECT_EQ(batcher.stats().records, 3u);
  EXPECT_EQ(batcher.stats().batches, 3u);
}

TEST(CallBatcherTest, FlushesWhenRecordCountFills) {
  RecordingTransport wire;
  CallBatcher batcher(wire,
                      CallBatcher::Options{.enabled = true,
                                           .max_bytes = 1 << 20,
                                           .max_calls = 2,
                                           .deadline = 0us},
                      rpc::RecordWriter::kDefaultMaxFragment);
  batcher.append(record_of(40));
  EXPECT_EQ(wire.sends(), 0u);  // below both thresholds: buffered
  batcher.append(record_of(40));
  batcher.append(record_of(40));
  batcher.append(record_of(40));
  EXPECT_EQ(wire.sends(), 2u);  // two full batches of two calls each
  EXPECT_EQ(batcher.stats().flush_full, 2u);
  // Each batch is one send carrying both record-marked calls.
  EXPECT_EQ(wire.bytes(), 4 * (4u + 40u));
}

TEST(CallBatcherTest, FlushesWhenByteThresholdFills) {
  RecordingTransport wire;
  CallBatcher batcher(wire,
                      CallBatcher::Options{.enabled = true,
                                           .max_bytes = 64,
                                           .max_calls = 1000,
                                           .deadline = 0us},
                      rpc::RecordWriter::kDefaultMaxFragment);
  batcher.append(record_of(40));  // 44 wire bytes: buffered
  EXPECT_EQ(wire.sends(), 0u);
  batcher.append(record_of(40));  // 88 wire bytes: over the cap
  EXPECT_EQ(wire.sends(), 1u);
  EXPECT_EQ(batcher.stats().flush_full, 1u);
}

TEST(CallBatcherTest, FlushesOnDeadlineWithoutHelp) {
  RecordingTransport wire;
  CallBatcher batcher(wire,
                      CallBatcher::Options{.enabled = true,
                                           .max_bytes = 1 << 20,
                                           .max_calls = 1000,
                                           .deadline = 2ms},
                      rpc::RecordWriter::kDefaultMaxFragment);
  batcher.append(record_of(40));
  const auto give_up = std::chrono::steady_clock::now() + 5s;
  while (wire.sends() == 0 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(wire.sends(), 1u);
  EXPECT_EQ(batcher.stats().flush_deadline, 1u);
}

TEST(CallBatcherTest, ExplicitFlushDrainsTheBuffer) {
  RecordingTransport wire;
  CallBatcher batcher(wire,
                      CallBatcher::Options{.enabled = true,
                                           .max_bytes = 1 << 20,
                                           .max_calls = 1000,
                                           .deadline = 0us},
                      rpc::RecordWriter::kDefaultMaxFragment);
  batcher.append(record_of(40));
  batcher.append(record_of(40));
  EXPECT_EQ(wire.sends(), 0u);
  batcher.flush();
  EXPECT_EQ(wire.sends(), 1u);
  EXPECT_EQ(batcher.stats().flush_explicit, 1u);
  batcher.flush();  // empty flush is a no-op
  EXPECT_EQ(wire.sends(), 1u);
}

/// Pipe-connected channel + pipelined server with concurrency probes.
class ChannelHarness {
 public:
  ChannelHarness(rpc::ServeOptions serve, ChannelOptions channel_options) {
    registry_.register_typed<std::uint32_t, std::uint32_t, std::uint32_t>(
        kProg, kVers, kProcAdd,
        [](std::uint32_t a, std::uint32_t b) { return a + b; });
    registry_.register_typed<std::uint32_t, std::uint32_t, std::uint32_t>(
        kProg, kVers, kProcDelayEcho,
        [](std::uint32_t value, std::uint32_t delay_ms) {
          std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
          return value;
        });
    registry_.register_typed<std::uint32_t, std::uint32_t>(
        kProg, kVers, kProcTrack, [this](std::uint32_t value) {
          const auto cur = in_handler_.fetch_add(1) + 1;
          auto seen = max_in_handler_.load();
          while (cur > seen &&
                 !max_in_handler_.compare_exchange_weak(seen, cur)) {
          }
          std::this_thread::sleep_for(20ms);
          in_handler_.fetch_sub(1);
          return value;
        });

    auto [client_end, server_end] = rpc::make_pipe_pair();
    server_end_ = std::move(server_end);
    server_thread_ = std::thread([this, serve] {
      rpc::serve_transport(registry_, *server_end_, serve);
    });
    channel_ = std::make_unique<AsyncRpcChannel>(std::move(client_end), kProg,
                                                 kVers, channel_options);
  }

  ~ChannelHarness() {
    channel_.reset();  // shuts down the client->server direction
    if (server_thread_.joinable()) server_thread_.join();
  }

  [[nodiscard]] AsyncRpcChannel& channel() { return *channel_; }
  [[nodiscard]] std::uint32_t max_handler_concurrency() const {
    return max_in_handler_.load();
  }

 private:
  rpc::ServiceRegistry registry_;
  std::atomic<std::uint32_t> in_handler_{0};
  std::atomic<std::uint32_t> max_in_handler_{0};
  std::unique_ptr<rpc::Transport> server_end_;
  std::thread server_thread_;
  std::unique_ptr<AsyncRpcChannel> channel_;
};

TEST(AsyncRpcChannelTest, OutOfOrderRepliesMatchTheirCalls) {
  ChannelHarness h(rpc::ServeOptions{.workers = 4, .max_in_flight = 16},
                   ChannelOptions{.max_outstanding = 16});
  // The first call sleeps; the rest complete immediately on other workers,
  // so their replies overtake it on the wire.
  auto slow = h.channel().call_async<std::uint32_t>(
      kProcDelayEcho, std::uint32_t{111}, std::uint32_t{150});
  std::vector<TypedFuture<std::uint32_t>> fast;
  for (std::uint32_t i = 0; i < 3; ++i) {
    fast.push_back(h.channel().call_async<std::uint32_t>(
        kProcDelayEcho, 1000 + i, std::uint32_t{0}));
  }
  h.channel().flush();
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(fast[i].get(), 1000 + i);
  }
  EXPECT_FALSE(slow.ready());  // fast replies arrived while it still ran
  EXPECT_EQ(slow.get(), 111u);
  const auto stats = h.channel().stats();
  EXPECT_EQ(stats.calls, 4u);
  EXPECT_EQ(stats.replies, 4u);
  EXPECT_EQ(stats.unmatched, 0u);
}

TEST(AsyncRpcChannelTest, WindowSaturatesAtMaxOutstanding) {
  ChannelHarness h(rpc::ServeOptions{.workers = 4, .max_in_flight = 64},
                   ChannelOptions{.max_outstanding = 4});
  std::vector<TypedFuture<std::uint32_t>> futures;
  for (std::uint32_t i = 0; i < 32; ++i) {
    futures.push_back(h.channel().call_async<std::uint32_t>(
        kProcDelayEcho, i, std::uint32_t{5}));
  }
  h.channel().flush();
  for (std::uint32_t i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[i].get(), i);
  }
  const auto stats = h.channel().stats();
  EXPECT_EQ(stats.replies, 32u);
  EXPECT_EQ(stats.max_in_flight, 4u);  // saturated, never exceeded
}

TEST(AsyncRpcChannelTest, ServerWorkerPoolRunsHandlersConcurrently) {
  ChannelHarness h(rpc::ServeOptions{.workers = 4, .max_in_flight = 16},
                   ChannelOptions{.max_outstanding = 16});
  std::vector<TypedFuture<std::uint32_t>> futures;
  for (std::uint32_t i = 0; i < 8; ++i) {
    futures.push_back(h.channel().call_async<std::uint32_t>(kProcTrack, i));
  }
  h.channel().flush();
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(futures[i].get(), i);
  }
  EXPECT_GE(h.max_handler_concurrency(), 2u);
  EXPECT_LE(h.max_handler_concurrency(), 4u);
}

TEST(AsyncRpcChannelTest, BatchedPipelineMatchesExpectedResults) {
  ChannelHarness h(
      rpc::ServeOptions{.workers = 2, .max_in_flight = 64},
      ChannelOptions{.max_outstanding = 64,
                     .batch = CallBatcher::Options{.enabled = true,
                                                   .max_calls = 8,
                                                   .deadline = 500us}});
  std::vector<TypedFuture<std::uint32_t>> futures;
  for (std::uint32_t i = 0; i < 200; ++i) {
    futures.push_back(
        h.channel().call_async<std::uint32_t>(kProcAdd, i, 2 * i));
  }
  h.channel().drain();
  for (std::uint32_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(futures[i].ready());
    EXPECT_EQ(futures[i].get(), 3 * i);
  }
  EXPECT_EQ(h.channel().stats().replies, 200u);
}

TEST(AsyncRpcChannelTest, CallLevelErrorsSurfaceThroughFutures) {
  ChannelHarness h(rpc::ServeOptions{.workers = 2, .max_in_flight = 8},
                   ChannelOptions{.max_outstanding = 8});
  auto fut = h.channel().call_async<std::uint32_t>(999);  // unknown proc
  h.channel().flush();
  try {
    (void)fut.get();
    FAIL() << "expected RpcError";
  } catch (const rpc::RpcError& e) {
    EXPECT_EQ(e.kind(), rpc::RpcError::Kind::kProcUnavail);
  }
  // The channel survives a per-call error: the next call works.
  EXPECT_EQ((h.channel().call<std::uint32_t>(kProcAdd, std::uint32_t{20},
                                             std::uint32_t{22})),
            42u);
}

TEST(AsyncRpcChannelTest, MidPipelineFailureFailsEveryPendingFuture) {
  auto [client_end, server_end] = rpc::make_pipe_pair();
  AsyncRpcChannel channel(std::move(client_end), kProg, kVers,
                          ChannelOptions{.max_outstanding = 64});
  std::vector<TypedFuture<std::uint32_t>> futures;
  for (std::uint32_t i = 0; i < 16; ++i) {
    futures.push_back(channel.call_async<std::uint32_t>(kProcAdd, i, i));
  }
  EXPECT_EQ(channel.outstanding(), 16u);
  // The "server" dies with every call still unanswered.
  server_end->shutdown();
  for (auto& fut : futures) {
    EXPECT_THROW((void)fut.get(), rpc::TransportError);
  }
  EXPECT_EQ(channel.outstanding(), 0u);
  EXPECT_EQ(channel.stats().failed, 16u);
  // drain() must not hang on a dead channel...
  channel.drain();
  // ...and new calls fail immediately instead of queueing forever.
  auto late = channel.call_async<std::uint32_t>(kProcAdd, std::uint32_t{1},
                                                std::uint32_t{1});
  EXPECT_THROW((void)late.get(), rpc::TransportError);
}

TEST(AsyncRpcChannelTest, OversizedReplyFailsUndecodedViaBoundsTable) {
  static constexpr rpc::ProcWireBounds kTable[] = {
      {kProg, kVers, kProcAdd, 8, 8, 4, 4, "add"},
  };
  auto [client_end, server_end] = rpc::make_pipe_pair();
  AsyncRpcChannel channel(
      std::move(client_end), kProg, kVers,
      ChannelOptions{.max_outstanding = 4, .bounds = kTable});
  // Raw "server": answers the call with a well-formed success reply whose
  // results blob far exceeds the procedure's proven result bound. The
  // channel must fail the future from the record length alone, before
  // decode_reply ever sees the payload.
  std::thread server([&] {
    rpc::RecordReader reader(*server_end);
    std::vector<std::uint8_t> record;
    if (!reader.read_record(record)) return;
    const rpc::CallMsg call = rpc::decode_call(record);
    rpc::ReplyMsg reply;
    reply.xid = call.xid;
    reply.results.assign(4096, 0x5A);  // proven max is 4 bytes
    rpc::RecordWriter writer(*server_end);
    writer.write_record(rpc::encode_reply(reply));
  });
  auto fut = channel.call_async<std::uint32_t>(kProcAdd, std::uint32_t{1},
                                               std::uint32_t{2});
  try {
    (void)fut.get();
    FAIL() << "expected RpcError";
  } catch (const rpc::RpcError& e) {
    EXPECT_EQ(e.kind(), rpc::RpcError::Kind::kBadReply);
  }
  server.join();
  EXPECT_EQ(channel.stats().preflight_rejected, 1u);
  EXPECT_EQ(channel.stats().failed, 1u);
  EXPECT_EQ(channel.stats().replies, 0u);
  EXPECT_EQ(channel.outstanding(), 0u);

  // The same channel stays usable: an in-bounds reply still completes.
  std::thread server2([&] {
    rpc::RecordReader reader(*server_end);
    std::vector<std::uint8_t> record;
    if (!reader.read_record(record)) return;
    const rpc::CallMsg call = rpc::decode_call(record);
    rpc::ReplyMsg reply;
    reply.xid = call.xid;
    reply.results = {0, 0, 0, 42};
    rpc::RecordWriter writer(*server_end);
    writer.write_record(rpc::encode_reply(reply));
  });
  EXPECT_EQ(
      (channel.call_async<std::uint32_t>(kProcAdd, std::uint32_t{40},
                                         std::uint32_t{2})
           .get()),
      42u);
  server2.join();
  // End the reader loop: the channel destructor joins the reader, which
  // runs until the server half-closes.
  server_end->shutdown();
}

TEST(AsyncRpcChannelTest, DrainIsIdleSafe) {
  ChannelHarness h(rpc::ServeOptions{.workers = 1, .max_in_flight = 4},
                   ChannelOptions{.max_outstanding = 4});
  h.channel().drain();
  EXPECT_EQ(h.channel().outstanding(), 0u);
}

/// End-to-end: the pipelined CUDA client against a pipelined Cricket server.
class AsyncCricketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    node_ = cuda::GpuNode::make_a100();
    workloads::register_sample_kernels(node_->registry());
    core::ServerOptions server_options;
    server_options.serve.workers = 2;  // clamped to 1 by CricketServer
    server_ = std::make_unique<core::CricketServer>(*node_, server_options);
    environment_ = env::with_pipelining(
        env::make_environment(env::EnvKind::kNativeRust), 32, true);
    auto conn = env::connect(environment_, node_->clock());
    server_thread_ = server_->serve_async(std::move(conn.server));
    api_ = std::make_unique<core::RemoteCudaApi>(
        std::move(conn.guest), node_->clock(),
        core::ClientConfig{.flavor = environment_.flavor,
                           .pipeline = environment_.pipeline});
  }

  void TearDown() override {
    api_.reset();
    if (server_thread_.joinable()) server_thread_.join();
  }

  std::unique_ptr<cuda::GpuNode> node_;
  std::unique_ptr<core::CricketServer> server_;
  env::Environment environment_;
  std::thread server_thread_;
  std::unique_ptr<core::RemoteCudaApi> api_;
};

TEST_F(AsyncCricketTest, MatrixMulIsBitIdenticalThroughThePipeline) {
  const auto report = workloads::run_matrix_mul(
      *api_, node_->clock(), environment_.flavor,
      workloads::MatrixMulConfig{
          .hA = 64, .wA = 64, .wB = 128, .iterations = 25, .verify = true});
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(api_->drain(), cuda::Error::kSuccess);
  EXPECT_GT(api_->stats().pipelined, 0u);  // launches actually pipelined
}

TEST_F(AsyncCricketTest, HistogramIsBitIdenticalThroughThePipeline) {
  const auto report = workloads::run_histogram(
      *api_, node_->clock(), environment_.flavor,
      workloads::HistogramConfig{
          .data_bytes = 1u << 20, .iterations = 20, .verify = true});
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(api_->drain(), cuda::Error::kSuccess);
}

TEST_F(AsyncCricketTest, SyncPointsReportPipelinedErrors) {
  // Launch through an invalid function handle: the fire-and-forget call
  // "succeeds", the error surfaces at the next synchronization point.
  EXPECT_EQ(api_->launch_kernel(/*func=*/0xDEAD, cuda::Dim3{1, 1, 1},
                                cuda::Dim3{1, 1, 1}, 0, /*stream=*/0, {}),
            cuda::Error::kSuccess);
  EXPECT_NE(api_->device_synchronize(), cuda::Error::kSuccess);
  // The sticky error was reported and cleared; the device is usable again.
  int count = 0;
  EXPECT_EQ(api_->get_device_count(count), cuda::Error::kSuccess);
  EXPECT_EQ(api_->device_synchronize(), cuda::Error::kSuccess);
}

TEST_F(AsyncCricketTest, DisconnectFailsSubsequentCalls) {
  int count = 0;
  EXPECT_EQ(api_->get_device_count(count), cuda::Error::kSuccess);
  api_->disconnect();
  EXPECT_EQ(api_->get_device_count(count), cuda::Error::kRpcFailure);
  EXPECT_EQ(api_->launch_kernel(1, cuda::Dim3{1, 1, 1}, cuda::Dim3{1, 1, 1},
                                0, 0, {}),
            cuda::Error::kRpcFailure);
}

}  // namespace
}  // namespace cricket::rpcflow
