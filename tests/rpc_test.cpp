#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bounded_wait.hpp"
#include "obs/metrics.hpp"
#include "rpc/client.hpp"
#include "rpc/record.hpp"
#include "rpc/rpc_msg.hpp"
#include "rpc/server.hpp"
#include "rpc/transport.hpp"
#include "sim/rng.hpp"
#include "xdr/taint.hpp"

namespace cricket::rpc {
namespace {

constexpr std::uint32_t kProg = 0x20000001;
constexpr std::uint32_t kVers = 1;
constexpr std::uint32_t kProcAdd = 1;
constexpr std::uint32_t kProcEcho = 2;
constexpr std::uint32_t kProcFail = 3;
constexpr std::uint32_t kProcConcatN = 4;
constexpr std::uint32_t kProcValidate = 5;

ServiceRegistry make_test_registry() {
  ServiceRegistry reg;
  reg.register_typed<std::uint32_t, std::uint32_t, std::uint32_t>(
      kProg, kVers, kProcAdd,
      [](std::uint32_t a, std::uint32_t b) { return a + b; });
  reg.register_typed<std::vector<std::uint8_t>, std::vector<std::uint8_t>>(
      kProg, kVers, kProcEcho,
      [](std::vector<std::uint8_t> data) { return data; });
  reg.register_typed<std::uint32_t, std::uint32_t>(
      kProg, kVers, kProcFail, [](std::uint32_t) -> std::uint32_t {
        throw std::runtime_error("handler exploded");
      });
  reg.register_typed<std::string, std::string, std::uint32_t>(
      kProg, kVers, kProcConcatN, [](const std::string& s, std::uint32_t n) {
        std::string out;
        for (std::uint32_t i = 0; i < n; ++i) out += s;
        return out;
      });
  // wiretaint: the handler validates its tainted scalar; the dispatch layer
  // turns the TaintError into a kGarbageArgs reply.
  reg.register_typed<std::uint64_t, xdr::Untrusted<std::uint64_t>>(
      kProg, kVers, kProcValidate, [](xdr::Untrusted<std::uint64_t> n) {
        return n.validate(1000, "test scalar");
      });
  return reg;
}

/// Client + in-process server fixture over a pipe pair.
class RpcPipeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_ = make_test_registry();
    auto [client_end, server_end] = make_pipe_pair();
    server_end_ = std::move(server_end);
    server_thread_ = std::thread([this] {
      serve_transport(registry_, *server_end_);
    });
    client_ = std::make_unique<RpcClient>(std::move(client_end), kProg, kVers);
  }

  void TearDown() override {
    client_.reset();  // shuts down the client->server direction
    if (server_thread_.joinable()) server_thread_.join();
  }

  ServiceRegistry registry_;
  std::unique_ptr<Transport> server_end_;
  std::unique_ptr<RpcClient> client_;
  std::thread server_thread_;
};

TEST_F(RpcPipeTest, NullProcedurePings) { EXPECT_NO_THROW(client_->ping()); }

std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++n;
  return n;
}

TEST(RpcClientDepth, DepthOneRunsOnTheCallersThreadOnly) {
  ServiceRegistry registry = make_test_registry();
  auto [client_end, server_end] = make_pipe_pair();
  std::thread server([&registry, &server_end] {
    serve_transport(registry, *server_end);
  });
  const std::size_t before = thread_count();
  {
    ClientOptions options;  // max_outstanding 1
    options.retry.enabled = true;
    RpcClient client(std::move(client_end), kProg, kVers, options);
    EXPECT_EQ((client.call<std::uint32_t>(kProcAdd, 1u, 2u)), 3u);
    auto ready = client.call_async<std::uint32_t>(kProcAdd, 3u, 4u);
    EXPECT_TRUE(ready.ready());  // a window of one: complete on return
    EXPECT_EQ(ready.get(), 7u);
    EXPECT_EQ(thread_count(), before);  // no reader, no retry thread
  }
  server.join();
}

TEST(RpcClientDepth, PipelinedClientStartsNoThread) {
  ServiceRegistry registry = make_test_registry();
  auto [client_end, server_end] = make_pipe_pair();
  std::thread server([&registry, &server_end] {
    serve_transport(registry, *server_end, ServeOptions{.workers = 1});
  });
  const std::size_t before = thread_count();
  {
    ClientOptions options;
    options.max_outstanding = 32;
    options.batch.enabled = true;
    options.retry.enabled = true;
    RpcClient client(std::move(client_end), kProg, kVers, options);
    std::vector<TypedFuture<std::uint32_t>> futures;
    for (std::uint32_t i = 0; i < 40; ++i)
      futures.push_back(client.call_async<std::uint32_t>(kProcAdd, i, 1u));
    client.drain();
    for (std::uint32_t i = 0; i < 40; ++i) EXPECT_EQ(futures[i].get(), i + 1);
    // The waiting caller reads the replies and fires the retry timers, and
    // the batcher flushes when it waits: no reader, retry or flusher thread.
    EXPECT_EQ(thread_count(), before);
  }
  server.join();
}

TEST(RpcClientDepth, DestructorReturnsWhenThePeerNeverCloses) {
  // The peer neither replies nor closes: teardown must not wait for the
  // reply, and fails the call still pending.
  auto [client_end, server_end] = make_pipe_pair();
  ReplyFuture pending;
  testutil::within(std::chrono::seconds(10), [&] {
    RpcClient client(std::move(client_end), kProg, kVers,
                     ClientOptions{.max_outstanding = 4});
    pending = client.call_raw_async(kProcAdd, {});
    client.flush();
  });
  EXPECT_THROW((void)pending.get(), TransportError);
}

TEST(ServeLoop, StartsNoThread) {
  constexpr std::uint32_t kProcThreads = 1;
  ServiceRegistry registry;
  registry.register_typed<std::uint32_t>(kProg, kVers, kProcThreads, [] {
    return static_cast<std::uint32_t>(thread_count());
  });
  for (const std::uint32_t workers : {0u, 1u}) {
    auto [client_end, server_end] = make_pipe_pair();
    std::size_t at_start = 0;
    std::thread server([&registry, &server_end, &at_start, workers] {
      at_start = thread_count();
      serve_transport(registry, *server_end, ServeOptions{.workers = workers});
    });
    std::size_t in_handler = 0;
    {
      RpcClient client(std::move(client_end), kProg, kVers);  // no thread
      in_handler = client.call<std::uint32_t>(kProcThreads);
    }
    server.join();
    // The handler runs inside the serve loop, which added no thread.
    EXPECT_EQ(in_handler, at_start) << "workers = " << workers;
  }
}

TEST_F(RpcPipeTest, TypedCallReturnsSum) {
  EXPECT_EQ((client_->call<std::uint32_t>(kProcAdd, std::uint32_t{2},
                                          std::uint32_t{40})),
            42u);
}

TEST_F(RpcPipeTest, ManySequentialCallsIncrementXids) {
  for (std::uint32_t i = 0; i < 500; ++i) {
    EXPECT_EQ((client_->call<std::uint32_t>(kProcAdd, i, i)), 2 * i);
  }
  EXPECT_EQ(client_->stats().calls, 500u);
}

TEST_F(RpcPipeTest, EchoLargePayloadRoundTrips) {
  sim::Xoshiro256ss rng(3);
  std::vector<std::uint8_t> payload(3u << 20);  // 3 MiB: forces fragmentation
  rng.fill_bytes(payload);
  const auto echoed =
      client_->call<std::vector<std::uint8_t>>(kProcEcho, payload);
  EXPECT_EQ(echoed, payload);
}

TEST_F(RpcPipeTest, UnknownProcedureIsProcUnavail) {
  try {
    client_->call_void(999);
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.kind(), RpcError::Kind::kProcUnavail);
  }
}

TEST_F(RpcPipeTest, HandlerExceptionIsSystemErr) {
  try {
    (void)client_->call<std::uint32_t>(kProcFail, std::uint32_t{1});
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.kind(), RpcError::Kind::kSystemErr);
  }
}

TEST_F(RpcPipeTest, TruncatedArgsAreGarbageArgs) {
  // kProcAdd wants two u32s; send one.
  xdr::Encoder enc;
  enc.put_u32(1);
  try {
    (void)client_->call_raw(kProcAdd, enc.bytes());
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.kind(), RpcError::Kind::kGarbageArgs);
  }
}

TEST_F(RpcPipeTest, TaintValidationFailureIsGarbageArgs) {
  // In-bound value validates and the plain result comes back.
  EXPECT_EQ(client_->call<std::uint64_t>(kProcValidate,
                                         xdr::Untrusted<std::uint64_t>(1000)),
            1000u);
  // Out-of-bound value dies in validate(): a typed kGarbageArgs reply, the
  // same class a malformed argument body gets — never a crash or
  // kSystemErr.
  try {
    (void)client_->call<std::uint64_t>(kProcValidate,
                                       xdr::Untrusted<std::uint64_t>(1001));
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.kind(), RpcError::Kind::kGarbageArgs);
  }
}

TEST_F(RpcPipeTest, TrailingArgsAreGarbageArgs) {
  xdr::Encoder enc;
  enc.put_u32(1);
  enc.put_u32(2);
  enc.put_u32(3);  // extra
  try {
    (void)client_->call_raw(kProcAdd, enc.bytes());
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.kind(), RpcError::Kind::kGarbageArgs);
  }
}

TEST_F(RpcPipeTest, StatsCountBytesBothWays) {
  (void)client_->call<std::uint32_t>(kProcAdd, std::uint32_t{1},
                                     std::uint32_t{2});
  EXPECT_GT(client_->stats().bytes_sent, 0u);
  EXPECT_GT(client_->stats().bytes_received, 0u);
}

TEST_F(RpcPipeTest, MultiArgStringProcedure) {
  EXPECT_EQ((client_->call<std::string>(kProcConcatN, std::string("ab"),
                                        std::uint32_t{3})),
            "ababab");
}

TEST(RpcVersioning, WrongVersionReportsMismatchBounds) {
  ServiceRegistry reg = make_test_registry();
  auto [client_end, server_end] = make_pipe_pair();
  std::thread server([&reg, t = std::move(server_end)]() mutable {
    serve_transport(reg, *t);
  });
  {
    RpcClient client(std::move(client_end), kProg, /*vers=*/99);
    try {
      client.ping();
      FAIL() << "expected RpcError";
    } catch (const RpcError& e) {
      EXPECT_EQ(e.kind(), RpcError::Kind::kProgMismatch);
      EXPECT_NE(std::string(e.what()).find("1..1"), std::string::npos);
    }
  }
  server.join();
}

TEST(RpcVersioning, UnknownProgramIsProgUnavail) {
  ServiceRegistry reg = make_test_registry();
  auto [client_end, server_end] = make_pipe_pair();
  std::thread server([&reg, t = std::move(server_end)]() mutable {
    serve_transport(reg, *t);
  });
  {
    RpcClient client(std::move(client_end), /*prog=*/0xBAD, kVers);
    try {
      client.ping();
      FAIL() << "expected RpcError";
    } catch (const RpcError& e) {
      EXPECT_EQ(e.kind(), RpcError::Kind::kProgUnavail);
    }
  }
  server.join();
}

/// In-process peer that answers every call with a success reply carrying the
/// wrong xid — a misbehaving (or pipelining) server on a synchronous channel.
class WrongXidTransport final : public Transport {
 public:
  void send(std::span<const std::uint8_t> data) override {
    inbox_.insert(inbox_.end(), data.begin(), data.end());
    while (inbox_.size() >= 4) {
      const std::uint32_t header =
          (std::uint32_t{inbox_[0]} << 24) | (std::uint32_t{inbox_[1]} << 16) |
          (std::uint32_t{inbox_[2]} << 8) | std::uint32_t{inbox_[3]};
      const bool last = (header & 0x8000'0000u) != 0;
      const std::size_t len = header & 0x7FFF'FFFFu;
      if (inbox_.size() < 4 + len) break;
      record_.insert(record_.end(), inbox_.begin() + 4,
                     inbox_.begin() + 4 + static_cast<std::ptrdiff_t>(len));
      inbox_.erase(inbox_.begin(),
                   inbox_.begin() + 4 + static_cast<std::ptrdiff_t>(len));
      if (!last) continue;
      const CallMsg call = decode_call(record_);
      record_.clear();
      ReplyMsg reply;
      reply.xid = call.xid + 1;  // the misbehaviour under test
      append_record_marked(outbox_, encode_reply(reply));
    }
  }

  std::size_t recv(std::span<std::uint8_t> out) override {
    if (outbox_.empty()) return 0;
    const std::size_t n = std::min(out.size(), outbox_.size());
    std::copy_n(outbox_.begin(), n, out.begin());
    outbox_.erase(outbox_.begin(), outbox_.begin() + static_cast<std::ptrdiff_t>(n));
    return n;
  }

  void shutdown() override {}

 private:
  std::vector<std::uint8_t> inbox_;
  std::vector<std::uint8_t> record_;
  std::vector<std::uint8_t> outbox_;
};

TEST(RpcXidMatching, MismatchedReplyXidIsBadReplyWithBothXids) {
  ClientOptions options;
  options.initial_xid = 0x1000;
  RpcClient client(std::make_unique<WrongXidTransport>(), kProg, kVers,
                   options);
  try {
    client.ping();
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.kind(), RpcError::Kind::kBadReply);
    const std::string what = e.what();
    // Both the expected and the received xid are named in the message.
    EXPECT_NE(what.find(std::to_string(0x1000)), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(0x1001)), std::string::npos) << what;
  }
}

// ------------------------------ record marking ------------------------------

TEST(RecordMarking, SingleFragmentRoundTrip) {
  auto [a, b] = make_pipe_pair();
  RecordWriter writer(*a);
  RecordReader reader(*b);
  const std::vector<std::uint8_t> msg = {1, 2, 3, 4, 5};
  writer.write_record(msg);
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(reader.read_record(out));
  EXPECT_EQ(out, msg);
}

TEST(RecordMarking, EmptyRecordRoundTrip) {
  auto [a, b] = make_pipe_pair();
  RecordWriter writer(*a);
  RecordReader reader(*b);
  writer.write_record({});
  std::vector<std::uint8_t> out = {9};
  ASSERT_TRUE(reader.read_record(out));
  EXPECT_TRUE(out.empty());
}

TEST(RecordMarking, EofBeforeRecordReturnsFalse) {
  auto [a, b] = make_pipe_pair();
  a->shutdown();
  RecordReader reader(*b);
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(reader.read_record(out));
}

TEST(RecordMarking, EofMidRecordThrows) {
  auto [a, b] = make_pipe_pair();
  // Header claiming 100 bytes, then only 10, then EOF.
  const std::uint8_t hdr[4] = {0x80, 0, 0, 100};
  a->send(hdr);
  const std::uint8_t partial[10] = {};
  a->send(partial);
  a->shutdown();
  RecordReader reader(*b);
  std::vector<std::uint8_t> out;
  EXPECT_THROW((void)reader.read_record(out), TransportError);
}

TEST(RecordMarking, OversizeRecordRejected) {
  auto [a, b] = make_pipe_pair();
  const std::uint8_t hdr[4] = {0x00, 0xFF, 0xFF, 0xFF};  // 16 MiB, not last
  a->send(hdr);
  RecordReader reader(*b, /*max_record=*/1024);
  std::vector<std::uint8_t> out;
  EXPECT_THROW((void)reader.read_record(out), TransportError);
}

TEST(RecordMarking, TimeoutMidRecordKeepsThePartRead) {
  // A record split mid-header and mid-body by a receive timeout: the next
  // read_record() resumes it instead of parsing payload as a record mark.
  const std::vector<std::uint8_t> msg(100, 0x11);
  std::vector<std::uint8_t> wire;
  append_record_marked(wire, msg);
  append_record_marked(wire, std::vector<std::uint8_t>{7, 8, 9});
  for (const std::size_t read_ahead :
       {std::size_t{0}, RecordReader::kPipelinedReadAhead}) {
    for (const std::size_t split : {std::size_t{2}, std::size_t{54}}) {
      SCOPED_TRACE("read_ahead " + std::to_string(read_ahead) + ", split " +
                   std::to_string(split));
      auto [a, b] = make_pipe_pair();
      ASSERT_TRUE(b->set_recv_timeout(std::chrono::milliseconds(1)));
      RecordReader reader(*b, /*max_record=*/1 << 16, read_ahead);
      std::vector<std::uint8_t> out;
      a->send(std::span(wire).first(split));
      EXPECT_THROW((void)reader.read_record(out), TransportTimeout);
      EXPECT_FALSE(reader.has_record());
      a->send(std::span(wire).subspan(split));
      ASSERT_TRUE(reader.read_record(out));
      EXPECT_EQ(out, msg);
      ASSERT_TRUE(reader.read_record(out));
      EXPECT_EQ(out, (std::vector<std::uint8_t>{7, 8, 9}));
      EXPECT_THROW((void)reader.read_record(out), TransportTimeout);
    }
  }
}

// The paper (§2) singles out fragmented-message support as the reason the
// existing Rust onc_rpc crate was unusable for Cricket. Sweep fragment sizes
// against payload sizes to prove reassembly is exact.
//
// ctest names each case by gtest's byte dump of the param, so the struct must
// have no padding: uninitialised padding bytes made the names change from run
// to run. A 64-bit `max_fragment` dumps the same bytes as a zero-padded
// 32-bit one.
struct FragmentCase {
  std::uint64_t max_fragment;
  std::size_t payload;
};
static_assert(sizeof(FragmentCase) ==
              sizeof(std::uint64_t) + sizeof(std::size_t));

class RecordFragmentation : public ::testing::TestWithParam<FragmentCase> {};

TEST_P(RecordFragmentation, ReassemblesExactly) {
  const auto [max_fragment, payload_size] = GetParam();
  auto [a, b] = make_pipe_pair(/*capacity_bytes=*/1 << 22);
  RecordWriter writer(*a, static_cast<std::uint32_t>(max_fragment));
  RecordReader reader(*b);

  sim::Xoshiro256ss rng(payload_size * 31 + max_fragment);
  std::vector<std::uint8_t> msg(payload_size);
  rng.fill_bytes(msg);

  std::thread sender([&] { writer.write_record(msg); });
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(reader.read_record(out));
  sender.join();
  EXPECT_EQ(out, msg);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RecordFragmentation,
    ::testing::Values(FragmentCase{1, 1}, FragmentCase{1, 17},
                      FragmentCase{7, 100}, FragmentCase{64, 64},
                      FragmentCase{64, 65}, FragmentCase{1024, 1 << 16},
                      FragmentCase{4096, (1 << 20) + 3},
                      FragmentCase{RecordWriter::kDefaultMaxFragment, 1 << 21}));

TEST(RecordMarking, BackToBackRecordsKeepBoundaries) {
  auto [a, b] = make_pipe_pair();
  RecordWriter writer(*a, /*max_fragment=*/8);
  RecordReader reader(*b);
  std::vector<std::vector<std::uint8_t>> msgs;
  sim::Xoshiro256ss rng(5);
  for (std::size_t len : {0u, 1u, 8u, 9u, 100u, 31u}) {
    std::vector<std::uint8_t> m(len);
    rng.fill_bytes(m);
    msgs.push_back(m);
  }
  std::thread sender([&] {
    for (const auto& m : msgs) writer.write_record(m);
    a->shutdown();
  });
  for (const auto& expected : msgs) {
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(reader.read_record(out));
    EXPECT_EQ(out, expected);
  }
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(reader.read_record(out));
  sender.join();
}

// ------------------------------- rpc messages -------------------------------

TEST(RpcMsg, CallRoundTrip) {
  CallMsg call;
  call.xid = 77;
  call.prog = kProg;
  call.vers = kVers;
  call.proc = kProcAdd;
  call.cred = AuthSysParms{.stamp = 1,
                           .machinename = "unikernel0",
                           .uid = 1000,
                           .gid = 100,
                           .gids = {100, 10}}
                  .to_opaque();
  call.args = {0, 0, 0, 1};
  const auto wire = encode_call(call);
  const CallMsg out = decode_call(wire);
  EXPECT_EQ(out.xid, 77u);
  EXPECT_EQ(out.prog, kProg);
  EXPECT_EQ(out.vers, kVers);
  EXPECT_EQ(out.proc, kProcAdd);
  EXPECT_EQ(out.args, call.args);
  const auto sys = AuthSysParms::from_opaque(out.cred);
  EXPECT_EQ(sys.machinename, "unikernel0");
  EXPECT_EQ(sys.uid, 1000u);
  EXPECT_EQ(sys.gids.size(), 2u);
}

TEST(RpcMsg, ReplySuccessRoundTrip) {
  ReplyMsg reply;
  reply.xid = 5;
  reply.accept_stat = AcceptStat::kSuccess;
  reply.results = {9, 9, 9, 9};
  const ReplyMsg out = decode_reply(encode_reply(reply));
  EXPECT_EQ(out.xid, 5u);
  EXPECT_EQ(out.stat, ReplyStat::kAccepted);
  EXPECT_EQ(out.accept_stat, AcceptStat::kSuccess);
  EXPECT_EQ(out.results, reply.results);
}

TEST(RpcMsg, ReplyProgMismatchCarriesBounds) {
  ReplyMsg reply;
  reply.xid = 6;
  reply.accept_stat = AcceptStat::kProgMismatch;
  reply.mismatch = MismatchInfo{2, 4};
  const ReplyMsg out = decode_reply(encode_reply(reply));
  ASSERT_TRUE(out.mismatch.has_value());
  EXPECT_EQ(out.mismatch->low, 2u);
  EXPECT_EQ(out.mismatch->high, 4u);
}

TEST(RpcMsg, ReplyDeniedAuthError) {
  ReplyMsg reply;
  reply.xid = 7;
  reply.stat = ReplyStat::kDenied;
  reply.reject_stat = RejectStat::kAuthError;
  reply.auth_stat = AuthStat::kTooWeak;
  const ReplyMsg out = decode_reply(encode_reply(reply));
  EXPECT_EQ(out.stat, ReplyStat::kDenied);
  EXPECT_EQ(out.reject_stat, RejectStat::kAuthError);
  EXPECT_EQ(out.auth_stat, AuthStat::kTooWeak);
}

TEST(RpcMsg, ReplyQuotaExceededCarriesReason) {
  ReplyMsg reply;
  reply.xid = 8;
  reply.accept_stat = AcceptStat::kQuotaExceeded;
  reply.quota_reason = QuotaReason::kRateLimited;
  const ReplyMsg out = decode_reply(encode_reply(reply));
  EXPECT_EQ(out.stat, ReplyStat::kAccepted);
  EXPECT_EQ(out.accept_stat, AcceptStat::kQuotaExceeded);
  EXPECT_EQ(out.quota_reason, QuotaReason::kRateLimited);
  EXPECT_TRUE(out.results.empty());
}

TEST(RpcMsg, ReplyQuotaExceededInvalidReasonThrows) {
  ReplyMsg reply;
  reply.xid = 8;
  reply.accept_stat = AcceptStat::kQuotaExceeded;
  reply.quota_reason = QuotaReason::kSessionLimit;
  auto wire = encode_reply(reply);
  // The reason word is the 4-byte body after the 24-byte accepted header.
  wire.back() = 9;  // past kSessionLimit
  EXPECT_THROW((void)decode_reply(wire), RpcFormatError);
}

TEST(RpcMsg, QuotaReasonNames) {
  EXPECT_STREQ(quota_reason_name(QuotaReason::kUnspecified), "unspecified");
  EXPECT_STREQ(quota_reason_name(QuotaReason::kRateLimited), "rate_limited");
  EXPECT_STREQ(quota_reason_name(QuotaReason::kOutstandingCalls),
               "outstanding_calls");
  EXPECT_STREQ(quota_reason_name(QuotaReason::kDeviceMemory),
               "device_memory");
  EXPECT_STREQ(quota_reason_name(QuotaReason::kSessionLimit),
               "session_limit");
}

TEST(RpcMsg, PeekCallCredentialMatchesFullDecode) {
  CallMsg call;
  call.xid = 0x1234;
  call.cred = AuthSysParms{
      .stamp = 7, .machinename = "tenant-a", .uid = 3, .gid = 4, .gids = {}}
                  .to_opaque();
  call.args = {1, 2, 3, 4};
  const auto wire = encode_call(call);
  const OpaqueAuth cred = peek_call_credential(wire);
  EXPECT_EQ(cred.flavor, AuthFlavor::kSys);
  EXPECT_EQ(cred.body, call.cred.body);
  EXPECT_EQ(AuthSysParms::from_opaque(cred).machinename, "tenant-a");
  // Same structural strictness as peek_call_header.
  ReplyMsg reply;
  reply.xid = 1;
  EXPECT_THROW((void)peek_call_credential(encode_reply(reply)),
               RpcFormatError);
}

TEST(RpcMsg, DecodeCallRejectsReply) {
  ReplyMsg reply;
  reply.xid = 1;
  EXPECT_THROW((void)decode_call(encode_reply(reply)), RpcFormatError);
}

TEST(RpcMsg, DecodeRejectsWrongRpcVersion) {
  CallMsg call;
  call.xid = 1;
  auto wire = encode_call(call);
  wire[11] = 3;  // rpcvers lives at bytes 8..11 (big-endian)
  EXPECT_THROW((void)decode_call(wire), RpcFormatError);
}

TEST(RpcMsg, AuthSysRejectsOversizeGidList) {
  xdr::Encoder enc;
  enc.put_u32(0);
  enc.put_string("m");
  enc.put_u32(0);
  enc.put_u32(0);
  enc.put_u32(17);  // > 16 gids
  for (int i = 0; i < 17; ++i) enc.put_u32(0);
  OpaqueAuth auth;
  auth.flavor = AuthFlavor::kSys;
  auth.body = {enc.bytes().begin(), enc.bytes().end()};
  EXPECT_THROW((void)AuthSysParms::from_opaque(auth), RpcFormatError);
}

TEST(RpcMsg, PeekCallHeaderMatchesFullDecode) {
  CallMsg call;
  call.xid = 0xABCD;
  call.prog = kProg;
  call.vers = kVers;
  call.proc = kProcEcho;
  call.cred = AuthSysParms{
      .stamp = 1, .machinename = "uk", .uid = 1, .gid = 1, .gids = {}}
                  .to_opaque();
  call.args = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto wire = encode_call(call);
  const CallHeader hdr = peek_call_header(wire);
  EXPECT_EQ(hdr.xid, call.xid);
  EXPECT_EQ(hdr.prog, kProg);
  EXPECT_EQ(hdr.vers, kVers);
  EXPECT_EQ(hdr.proc, kProcEcho);
  // body_offset lands exactly on the encoded args.
  ASSERT_EQ(wire.size() - hdr.body_offset, call.args.size());
  EXPECT_EQ(decode_call(wire).args, call.args);
  // Replies and wrong rpcvers are rejected just like decode_call.
  ReplyMsg reply;
  reply.xid = 1;
  EXPECT_THROW((void)peek_call_header(encode_reply(reply)), RpcFormatError);
  auto bad = wire;
  bad[11] = 3;
  EXPECT_THROW((void)peek_call_header(bad), RpcFormatError);
}

TEST(RpcMsg, TruncatedCallEveryHeaderPrefixThrows) {
  CallMsg call;
  call.xid = 9;
  call.prog = kProg;
  call.vers = kVers;
  call.proc = kProcAdd;
  call.cred = AuthSysParms{
      .stamp = 3, .machinename = "uk0", .uid = 5, .gid = 5, .gids = {}}
                  .to_opaque();
  call.args = {0, 0, 0, 1};
  const auto wire = encode_call(call);
  const std::size_t body_offset = peek_call_header(wire).body_offset;
  for (std::size_t n = 0; n < body_offset; ++n) {
    SCOPED_TRACE("prefix length " + std::to_string(n));
    const std::vector<std::uint8_t> prefix(wire.begin(),
                                           wire.begin() + std::ptrdiff_t(n));
    bool decode_threw = false;
    try {
      (void)decode_call(prefix);
    } catch (const xdr::XdrError&) {
      decode_threw = true;
    } catch (const RpcFormatError&) {
      decode_threw = true;
    }
    EXPECT_TRUE(decode_threw);
    bool peek_threw = false;
    try {
      (void)peek_call_header(prefix);
    } catch (const xdr::XdrError&) {
      peek_threw = true;
    } catch (const RpcFormatError&) {
      peek_threw = true;
    }
    EXPECT_TRUE(peek_threw);
  }
  // Truncation inside the args region is not the header codec's problem:
  // the call decodes with shorter args (the typed layer rejects those).
  EXPECT_TRUE(
      decode_call(std::span(wire).first(body_offset)).args.empty());
}

TEST(RpcMsg, TruncatedReplyEveryPrefixThrows) {
  ReplyMsg mismatch;
  mismatch.xid = 6;
  mismatch.accept_stat = AcceptStat::kProgMismatch;
  mismatch.mismatch = MismatchInfo{2, 4};
  ReplyMsg denied;
  denied.xid = 7;
  denied.stat = ReplyStat::kDenied;
  denied.reject_stat = RejectStat::kAuthError;
  denied.auth_stat = AuthStat::kBadCred;
  for (const auto& wire : {encode_reply(mismatch), encode_reply(denied)}) {
    for (std::size_t n = 0; n < wire.size(); ++n) {
      SCOPED_TRACE("prefix length " + std::to_string(n));
      const std::vector<std::uint8_t> prefix(wire.begin(),
                                             wire.begin() + std::ptrdiff_t(n));
      bool threw = false;
      try {
        (void)decode_reply(prefix);
      } catch (const xdr::XdrError&) {
        threw = true;
      } catch (const RpcFormatError&) {
        threw = true;
      }
      EXPECT_TRUE(threw) << "early EOF must throw, never parse";
    }
  }
}

TEST(RpcMsg, ReplyInvalidAcceptStatThrows) {
  ReplyMsg reply;
  reply.xid = 5;
  auto wire = encode_reply(reply);
  // xid(4) mtype(4) reply_stat(4) verf flavor(4) verf len(4) accept_stat(4)
  ASSERT_EQ(wire.size(), 24u);
  wire[23] = 9;  // not a valid accept_stat
  EXPECT_THROW((void)decode_reply(wire), RpcFormatError);
}

TEST(RpcMsg, ReplyInvalidRejectAndAuthStatThrow) {
  ReplyMsg denied;
  denied.xid = 7;
  denied.stat = ReplyStat::kDenied;
  denied.reject_stat = RejectStat::kAuthError;
  denied.auth_stat = AuthStat::kBadCred;
  const auto wire = encode_reply(denied);
  // xid(4) mtype(4) reply_stat(4) reject_stat(4) auth_stat(4)
  ASSERT_EQ(wire.size(), 20u);
  auto bad_reject = wire;
  bad_reject[15] = 5;  // reject_stat must be 0 or 1
  EXPECT_THROW((void)decode_reply(bad_reject), RpcFormatError);
  auto bad_auth = wire;
  bad_auth[19] = 200;  // auth_stat outside kOk..kFailed
  EXPECT_THROW((void)decode_reply(bad_auth), RpcFormatError);
}

TEST(RpcMsg, ReplyTrailingGarbageAfterErrorBodyThrows) {
  ReplyMsg denied;
  denied.xid = 8;
  denied.stat = ReplyStat::kDenied;
  denied.reject_stat = RejectStat::kAuthError;
  denied.auth_stat = AuthStat::kTooWeak;
  auto wire = encode_reply(denied);
  wire.push_back(0);
  wire.push_back(0);
  wire.push_back(0);
  wire.push_back(0);
  EXPECT_THROW((void)decode_reply(wire), xdr::XdrError);
}

// ------------------------- bounds decode pre-flight -------------------------

/// Same pipe fixture, with a wire-size bounds table installed: records whose
/// length cannot be a valid encoding of the addressed procedure's arguments
/// are answered with GarbageArgs before any decode or allocation happens.
class RpcPreflightTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_ = make_test_registry();
    registry_.set_bounds(kBoundsTable);
    auto [client_end, server_end] = make_pipe_pair();
    server_end_ = std::move(server_end);
    server_thread_ =
        std::thread([this] { serve_transport(registry_, *server_end_); });
    client_ = std::make_unique<RpcClient>(std::move(client_end), kProg, kVers);
  }

  void TearDown() override {
    client_.reset();
    if (server_thread_.joinable()) server_thread_.join();
  }

  static constexpr ProcWireBounds kBoundsTable[] = {
      // echo: opaque<64> worst case = 4-byte count + 64 bytes
      {kProg, kVers, kProcEcho, 4, 68, 4, 68, "echo"},
      // add: exactly two u32s
      {kProg, kVers, kProcAdd, 8, 8, 4, 4, "add"},
  };

  ServiceRegistry registry_;
  std::unique_ptr<Transport> server_end_;
  std::unique_ptr<RpcClient> client_;
  std::thread server_thread_;
};

obs::Counter& preflight_rejected_counter() {
  return obs::Registry::global().counter(
      "cricket_rpc_preflight_rejected_total", {},
      "Records rejected by wire-size bounds pre-flight before decode");
}

obs::Counter& args_decode_counter() {
  return obs::Registry::global().counter("cricket_rpc_args_decode_total", {},
                                         "Typed argument decode attempts");
}

TEST_F(RpcPreflightTest, InRangeRecordsPassThrough) {
  const std::vector<std::uint8_t> payload(60, 0x42);  // 64 encoded: in range
  EXPECT_EQ(client_->call<std::vector<std::uint8_t>>(kProcEcho, payload),
            payload);
  EXPECT_EQ(
      (client_->call<std::uint32_t>(kProcAdd, std::uint32_t{20},
                                    std::uint32_t{22})),
      42u);
}

TEST_F(RpcPreflightTest, OversizedRecordRejectedBeforeDecode) {
  const std::uint64_t rejected_before = preflight_rejected_counter().value();
  const std::uint64_t decodes_before = args_decode_counter().value();
  try {
    // 100-byte payload encodes to 104 > the proven max of 68.
    (void)client_->call<std::vector<std::uint8_t>>(
        kProcEcho, std::vector<std::uint8_t>(100, 0x42));
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.kind(), RpcError::Kind::kGarbageArgs);
  }
  EXPECT_EQ(preflight_rejected_counter().value(), rejected_before + 1);
  // The proof of "before decode": the typed decode counter never moved.
  EXPECT_EQ(args_decode_counter().value(), decodes_before);
}

TEST_F(RpcPreflightTest, UndersizedRecordRejectedBeforeDecode) {
  const std::uint64_t rejected_before = preflight_rejected_counter().value();
  const std::uint64_t decodes_before = args_decode_counter().value();
  xdr::Encoder enc;
  enc.put_u32(1);  // add needs exactly 8 bytes of args
  try {
    (void)client_->call_raw(kProcAdd, enc.bytes());
    FAIL() << "expected RpcError";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.kind(), RpcError::Kind::kGarbageArgs);
  }
  EXPECT_EQ(preflight_rejected_counter().value(), rejected_before + 1);
  EXPECT_EQ(args_decode_counter().value(), decodes_before);
}

TEST_F(RpcPreflightTest, ProcsOutsideTheTableAreNotPreflighted) {
  const std::uint64_t rejected_before = preflight_rejected_counter().value();
  EXPECT_EQ((client_->call<std::string>(kProcConcatN, std::string("xy"),
                                        std::uint32_t{2})),
            "xyxy");
  EXPECT_EQ(preflight_rejected_counter().value(), rejected_before);
}

// --------------------------- real TCP integration ---------------------------

TEST(RpcTcp, LoopbackCallsWork) {
  const ServiceRegistry reg = make_test_registry();
  TcpRpcServer server(reg, std::make_unique<TcpListener>());
  auto conn = TcpTransport::connect_loopback(server.port());
  RpcClient client(std::move(conn), kProg, kVers);
  EXPECT_EQ((client.call<std::uint32_t>(kProcAdd, std::uint32_t{20},
                                        std::uint32_t{22})),
            42u);
  sim::Xoshiro256ss rng(4);
  std::vector<std::uint8_t> payload(1 << 20);
  rng.fill_bytes(payload);
  EXPECT_EQ((client.call<std::vector<std::uint8_t>>(kProcEcho, payload)),
            payload);
}

TEST(RpcTcp, MultipleConcurrentClients) {
  const ServiceRegistry reg = make_test_registry();
  TcpRpcServer server(reg, std::make_unique<TcpListener>());
  constexpr int kClients = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      try {
        RpcClient client(TcpTransport::connect_loopback(server.port()), kProg,
                         kVers);
        for (std::uint32_t i = 0; i < 200; ++i) {
          const auto want = static_cast<std::uint32_t>(t) + i;
          if (client.call<std::uint32_t>(kProcAdd,
                                         static_cast<std::uint32_t>(t), i) !=
              want)
            ++failures;
        }
      } catch (...) {
        ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

std::size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  return static_cast<std::size_t>(
      std::count(std::istreambuf_iterator<char>(maps),
                 std::istreambuf_iterator<char>(), '\n'));
}

TEST(RpcTcp, FinishedConnectionThreadsAreJoined) {
  const ServiceRegistry reg = make_test_registry();
  TcpRpcServer server(reg, std::make_unique<TcpListener>());
  const auto connect_call_close = [&server] {
    RpcClient client(TcpTransport::connect_loopback(server.port()), kProg,
                     kVers);
    EXPECT_EQ((client.call<std::uint32_t>(kProcAdd, 1u, 2u)), 3u);
  };
  constexpr std::size_t kConnections = 64;
  for (int i = 0; i < 8; ++i) connect_call_close();  // settle the allocator
  const std::size_t before = mapping_count();
  for (std::size_t i = 0; i < kConnections; ++i) connect_call_close();
  // A finished thread that is never joined keeps its stack and guard page
  // mapped, two lines per connection; joined ones hand their stacks back
  // for the next connection. Sanitizer runtimes map a few of their own.
  EXPECT_LT(mapping_count(), before + kConnections);
}

// ------------------------------- byte queues --------------------------------

TEST(ByteQueue, BlocksUntilDataArrives) {
  ByteQueue q(16);
  std::thread producer([&] {
    const std::uint8_t data[3] = {1, 2, 3};
    q.push(data);
  });
  std::uint8_t out[3] = {};
  std::size_t got = 0;
  while (got < 3) got += q.pop(std::span(out + got, 3 - got));
  producer.join();
  EXPECT_EQ(out[2], 3);
}

TEST(ByteQueue, PushBlocksWhenFullThenDrains) {
  ByteQueue q(4);
  std::vector<std::uint8_t> big(64);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::uint8_t>(i);
  std::thread producer([&] {
    q.push(big);
    q.close();
  });
  std::vector<std::uint8_t> out;
  std::uint8_t buf[8];
  for (;;) {
    const std::size_t n = q.pop(buf);
    if (n == 0) break;
    out.insert(out.end(), buf, buf + n);
  }
  producer.join();
  EXPECT_EQ(out, big);
}

TEST(ByteQueue, PushAfterCloseThrows) {
  ByteQueue q(4);
  q.close();
  const std::uint8_t b[1] = {0};
  EXPECT_THROW(q.push(b), TransportError);
}

// A producer and a consumer move random-sized pieces through a ring far
// smaller than the stream, so pushes and pops wrap at every offset.
class ByteQueueRingProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ByteQueueRingProperty, StreamSurvivesEveryWrap) {
  constexpr std::size_t kCapacity = 37;
  ByteQueue q(kCapacity);
  sim::Xoshiro256ss rng(GetParam());
  std::vector<std::uint8_t> data(200'000);
  rng.fill_bytes(data);
  std::thread producer([&] {
    sim::Xoshiro256ss sizes(GetParam() + 1);
    for (std::size_t off = 0; off < data.size();) {
      const std::size_t n =
          std::min<std::size_t>(1 + sizes.next() % 90, data.size() - off);
      q.push(std::span(data).subspan(off, n));
      off += n;
    }
    q.close();
  });
  sim::Xoshiro256ss sizes(GetParam() + 2);
  std::vector<std::uint8_t> got;
  std::vector<std::uint8_t> buf(64);
  for (;;) {
    const std::size_t want = 1 + sizes.next() % buf.size();
    const std::size_t n = q.pop(std::span(buf).first(want));
    if (n == 0) break;
    ASSERT_LE(n, want);
    got.insert(got.end(), buf.begin(), buf.begin() + static_cast<long>(n));
  }
  producer.join();
  EXPECT_EQ(got, data);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ByteQueueRingProperty,
                         ::testing::Values(1, 2, 3, 4));

TEST(ByteQueue, PushBlocksWhileFullAndResumesAfterPop) {
  ByteQueue q(4);
  const std::uint8_t first[4] = {1, 2, 3, 4};
  q.push(first);  // fills the ring
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    const std::uint8_t more[2] = {5, 6};
    q.push(more);
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(pushed.load());
  std::uint8_t out[6] = {};
  std::size_t got = q.pop(std::span(out, 1));
  while (got < 6) got += q.pop(std::span(out + got, 6 - got));
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(std::vector<std::uint8_t>(out, out + 6),
            (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6}));
}

TEST(ByteQueue, CloseLetsTheReaderDrain) {
  ByteQueue q(8);
  const std::uint8_t data[5] = {1, 2, 3, 4, 5};
  q.push(data);
  q.close();
  std::uint8_t out[8] = {};
  EXPECT_EQ(q.pop(std::span(out, 3)), 3u);
  EXPECT_EQ(q.pop(out), 2u);
  EXPECT_EQ(out[1], 5);
  EXPECT_EQ(q.pop(out), 0u);
}

TEST(PipeTransport, DestroyedEndClosesBothDirections) {
  auto [a, b] = make_pipe_pair(4 << 10);
  const std::uint8_t hello[5] = {1, 2, 3, 4, 5};
  b->send(hello);
  b.reset();
  // The peer's send into a full ring fails instead of blocking forever...
  const std::vector<std::uint8_t> big(64 << 10, 0x5A);
  testutil::within(std::chrono::seconds(10), [&] {
    EXPECT_THROW(a->send(big), TransportError);
  });
  // ...and its recv drains what was sent, then reads end-of-stream.
  std::uint8_t out[8] = {};
  EXPECT_EQ(a->recv(out), 5u);
  EXPECT_EQ(a->recv(out), 0u);
}

TEST(ByteQueue, PopForThrowsTransportTimeout) {
  ByteQueue q(8);
  std::uint8_t out[4];
  EXPECT_THROW((void)q.pop_for(out, std::chrono::milliseconds(10)),
               TransportTimeout);
  const std::uint8_t data[2] = {7, 8};
  q.push(data);
  EXPECT_EQ(q.pop_for(out, std::chrono::milliseconds(10)), 2u);
}

TEST(ByteQueue, TryPopTellsEmptyFromClosedAndDrained) {
  ByteQueue q(8);
  std::uint8_t out[4];
  EXPECT_EQ(q.try_pop(out), std::nullopt);  // empty, still open
  const std::uint8_t data[2] = {1, 2};
  q.push(data);
  q.close();
  EXPECT_EQ(q.try_pop(out), std::optional<std::size_t>(2));
  EXPECT_EQ(q.try_pop(out), std::optional<std::size_t>(0));  // EOF
}

}  // namespace
}  // namespace cricket::rpc

// -------------------------------- portmapper --------------------------------

#include "rpc/portmap.hpp"

namespace cricket::rpc {
namespace {

TEST(Portmap, SetGetportUnsetLocally) {
  Portmapper pm;
  EXPECT_TRUE(pm.set({kProg, 1, kIpProtoTcp, 5001}));
  EXPECT_FALSE(pm.set({kProg, 1, kIpProtoTcp, 5002}));  // duplicate refused
  EXPECT_TRUE(pm.set({kProg, 1, kIpProtoUdp, 5001}));   // other proto fine
  EXPECT_EQ(pm.getport(kProg, 1, kIpProtoTcp), 5001u);
  EXPECT_EQ(pm.getport(kProg, 2, kIpProtoTcp), 0u);  // not registered
  EXPECT_TRUE(pm.unset(kProg, 1));
  EXPECT_EQ(pm.getport(kProg, 1, kIpProtoTcp), 0u);
  EXPECT_FALSE(pm.unset(kProg, 1));  // already gone
}

TEST(Portmap, MappingXdrRoundTrip) {
  const PmapMapping m{0x20000C81, 1, kIpProtoTcp, 49152};
  xdr::Encoder enc;
  xdr_encode(enc, m);
  EXPECT_EQ(enc.size(), 16u);  // four u32 fields, RFC 1833 layout
  xdr::Decoder dec(enc.bytes());
  PmapMapping out;
  xdr_decode(dec, out);
  EXPECT_EQ(out, m);
}

TEST(Portmap, WireProtocolOverPipe) {
  Portmapper pm;
  ServiceRegistry registry;
  pm.register_into(registry);
  auto [client_end, server_end] = make_pipe_pair();
  std::thread server([&registry, t = std::move(server_end)]() mutable {
    serve_transport(registry, *t);
  });
  {
    PortmapClient client(std::move(client_end));
    EXPECT_TRUE(client.set({777, 3, kIpProtoTcp, 9999}));
    EXPECT_EQ(client.getport(777, 3), 9999u);
    EXPECT_EQ(client.getport(777, 4), 0u);
    const auto mappings = client.dump();
    ASSERT_EQ(mappings.size(), 1u);
    EXPECT_EQ(mappings[0].port, 9999u);
    EXPECT_TRUE(client.unset(777, 3));
    EXPECT_TRUE(client.dump().empty());
  }
  server.join();
}

TEST(Portmap, DiscoverThenConnectFlow) {
  // The full deployment flow: a service registers its ephemeral TCP port
  // with the portmapper; a client discovers it and dials.
  const ServiceRegistry service = make_test_registry();
  TcpRpcServer service_server(service, std::make_unique<TcpListener>());

  Portmapper pm;
  ServiceRegistry pm_registry;
  pm.register_into(pm_registry);
  TcpRpcServer pm_server(pm_registry, std::make_unique<TcpListener>());

  // Service side registers itself.
  {
    PortmapClient reg(TcpTransport::connect_loopback(pm_server.port()));
    ASSERT_TRUE(reg.set({kProg, kVers, kIpProtoTcp, service_server.port()}));
  }
  // Client side discovers and calls.
  PortmapClient discover(TcpTransport::connect_loopback(pm_server.port()));
  const auto port = discover.getport(kProg, kVers);
  ASSERT_NE(port, 0u);
  RpcClient client(TcpTransport::connect_loopback(
                       static_cast<std::uint16_t>(port)),
                   kProg, kVers);
  EXPECT_EQ((client.call<std::uint32_t>(kProcAdd, std::uint32_t{40},
                                        std::uint32_t{2})),
            42u);
}

}  // namespace
}  // namespace cricket::rpc
