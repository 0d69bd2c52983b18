// obs subsystem: metrics registry + span tracing.
//
// Tracing state (collector, enabled flag, bound clock) is process-global, so
// every tracing test goes through TraceTest, which resets the collector and
// restores the disabled/unbound default on exit — tests stay order-independent.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "rpc/transport.hpp"
#include "sim/sim_clock.hpp"

namespace cricket::obs {
namespace {

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(Counter, IncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAddSub) {
  Gauge g;
  g.set(10);
  g.add(5);
  g.sub(20);
  EXPECT_EQ(g.value(), -5);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(Histogram, ObserveSnapshotReset) {
  Histogram h;
  h.observe(1);
  h.observe(1);
  h.observe(100);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 102u);
  const sim::Log2Histogram snap = h.snapshot();
  EXPECT_EQ(snap.total(), 3u);
  EXPECT_EQ(snap.bucket(sim::Log2Histogram::bucket_index(1)), 2u);
  EXPECT_EQ(snap.bucket(sim::Log2Histogram::bucket_index(100)), 1u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
}

TEST(Registry, GetOrCreateIsStableAndCanonical) {
  Registry reg;
  Counter& a = reg.counter("calls", {{"mode", "sync"}, {"env", "vm"}});
  Counter& b = reg.counter("calls", {{"env", "vm"}, {"mode", "sync"}});
  EXPECT_EQ(&a, &b) << "label order must not create a second series";
  Counter& c = reg.counter("calls", {{"env", "native"}, {"mode", "sync"}});
  EXPECT_NE(&a, &c);
}

TEST(Registry, SeriesNameFormat) {
  EXPECT_EQ(series_name("up", {}), "up");
  EXPECT_EQ(series_name("calls", {{"a", "1"}, {"b", "2"}}),
            "calls{a=\"1\",b=\"2\"}");
}

TEST(Registry, UniqueLabelSequences) {
  Registry reg;
  EXPECT_EQ(reg.unique_label("vnet"), "vnet0");
  EXPECT_EQ(reg.unique_label("vnet"), "vnet1");
  EXPECT_EQ(reg.unique_label("gpu"), "gpu0");
}

TEST(Registry, ResetZeroesInPlace) {
  Registry reg;
  Counter& c = reg.counter("calls");
  c.inc(7);
  reg.reset();
  EXPECT_EQ(c.value(), 0u) << "the pre-reset reference must stay live";
  c.inc();
  EXPECT_EQ(reg.snapshot().counters.at("calls"), 1u);
}

TEST(Registry, PrometheusGolden) {
  Registry reg;
  reg.counter("rpc_calls_total", {{"mode", "sync"}}, "Forwarded calls").inc(3);
  reg.gauge("queue_depth", {}, "Depth").set(-2);
  Histogram& h = reg.histogram("lat_ns", {{"layer", "net.tx"}}, "Latency");
  h.observe(1);
  h.observe(1);
  h.observe(100);
  EXPECT_EQ(reg.prometheus_text(),
            "# HELP rpc_calls_total Forwarded calls\n"
            "# TYPE rpc_calls_total counter\n"
            "rpc_calls_total{mode=\"sync\"} 3\n"
            "# HELP queue_depth Depth\n"
            "# TYPE queue_depth gauge\n"
            "queue_depth -2\n"
            "# HELP lat_ns Latency\n"
            "# TYPE lat_ns histogram\n"
            "lat_ns_bucket{layer=\"net.tx\",le=\"1\"} 2\n"
            "lat_ns_bucket{layer=\"net.tx\",le=\"127\"} 3\n"
            "lat_ns_bucket{layer=\"net.tx\",le=\"+Inf\"} 3\n"
            "lat_ns_sum{layer=\"net.tx\"} 102\n"
            "lat_ns_count{layer=\"net.tx\"} 3\n");
}

TEST(Snapshot, MergeSumsCountersAndHistograms) {
  Registry a;
  a.counter("calls").inc(2);
  a.gauge("depth").set(1);
  a.histogram("lat").observe(4);
  Registry b;
  b.counter("calls").inc(5);
  b.gauge("depth").set(9);
  b.histogram("lat").observe(4);
  b.histogram("lat").observe(1000);

  Snapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.counters.at("calls"), 7u);
  EXPECT_EQ(merged.gauges.at("depth"), 9) << "gauges keep the latest value";
  EXPECT_EQ(merged.histograms.at("lat").hist.total(), 3u);
  EXPECT_EQ(merged.histograms.at("lat").sum, 1008u);
}

TEST(Registry, ConcurrentBumpsAreLossless) {
  Registry reg;
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      // Get-or-create races with other registrants on purpose.
      Counter& c = reg.counter("calls", {{"shared", "yes"}});
      Histogram& h = reg.histogram("lat");
      for (int i = 0; i < kIters; ++i) {
        c.inc();
        h.observe(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter("calls", {{"shared", "yes"}}).value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(reg.histogram("lat").count(),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// Base for every test that touches the global trace collector.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_.reset();
    bind_clock(&clock_);
    reset_trace();
    enable_tracing();
  }
  void TearDown() override {
    disable_tracing();
    reset_trace();
    bind_clock(nullptr);
  }
  sim::SimClock clock_;
};

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  disable_tracing();
  reset_trace();
  {
    Span span(Layer::kApp, "noop");
    clock_.advance(100);
  }
  instant(Layer::kApp);
  EXPECT_TRUE(collect_events().empty());
  EXPECT_EQ(events_recorded(), 0u);
  EXPECT_EQ(events_dropped(), 0u);
}

// Everything below needs spans to actually record — compiled out along with
// the hot path under -DCRICKET_OBS=OFF (the define propagates from
// cricket::obs). DisabledSpansRecordNothing above doubles as the check that
// the no-op surface stays callable.
#if !defined(CRICKET_OBS_DISABLE)

TEST_F(TraceTest, NestedSpansOnVirtualClock) {
  {
    Span outer(Layer::kClientCall, "outer");
    clock_.advance(100);
    {
      Span inner(Layer::kChanSend, "inner", 64);
      clock_.advance(50);
    }
    clock_.advance(25);
  }
  const auto events = collect_events();
  ASSERT_EQ(events.size(), 2u);
  // Sorted parents-first: ascending start, longer duration on ties.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[0].start_ns, 0);
  EXPECT_EQ(events[0].dur_ns, 175);
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[1].start_ns, 100);
  EXPECT_EQ(events[1].dur_ns, 50);
  EXPECT_EQ(events[1].arg, 64u);
  EXPECT_EQ(events[0].tid, events[1].tid);
}

TEST_F(TraceTest, ScopedXidNestsAndRestores) {
  EXPECT_EQ(current_xid(), 0u);
  {
    ScopedXid outer(7);
    EXPECT_EQ(current_xid(), 7u);
    instant(Layer::kApp, "at7");
    {
      ScopedXid inner(9);
      EXPECT_EQ(current_xid(), 9u);
      instant(Layer::kApp, "at9");
    }
    EXPECT_EQ(current_xid(), 7u);
  }
  EXPECT_EQ(current_xid(), 0u);
  const auto events = collect_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].xid, 7u);
  EXPECT_EQ(events[1].xid, 9u);
}

TEST_F(TraceTest, SpanCancelAndIdempotentFinish) {
  {
    Span dropped(Layer::kApp, "dropped");
    dropped.cancel();
  }
  Span kept(Layer::kApp, "kept");
  clock_.advance(10);
  kept.finish();
  clock_.advance(10);
  kept.finish();  // no second event
  const auto events = collect_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "kept");
  EXPECT_EQ(events[0].dur_ns, 10);
}

TEST_F(TraceTest, InstantEventsAreZeroDuration) {
  clock_.advance(4000);
  instant(Layer::kChanReply, nullptr, 99);
  const auto events = collect_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].instant);
  EXPECT_EQ(events[0].dur_ns, 0);
  EXPECT_EQ(events[0].arg, 99u);
  EXPECT_STREQ(events[0].name, "chan.reply");
}

TEST_F(TraceTest, RingWraparoundKeepsLatestAndCounts) {
  enable_tracing(TraceOptions{.ring_capacity = 8, .latency_metrics = true});
  reset_trace();  // re-register this thread's ring at the small capacity
  for (int i = 0; i < 20; ++i)
    instant(Layer::kApp, "tick", static_cast<std::uint64_t>(i));
  const auto events = collect_events();
  EXPECT_EQ(events.size(), 8u);
  for (const auto& ev : events)
    EXPECT_GE(ev.arg, 12u) << "wraparound must keep the newest events";
  EXPECT_EQ(events_recorded(), 20u);
  EXPECT_EQ(events_dropped(), 12u);
}

TEST_F(TraceTest, ResetDropsEventsAndCounters) {
  instant(Layer::kApp);
  instant(Layer::kApp);
  EXPECT_EQ(events_recorded(), 2u);
  reset_trace();
  EXPECT_TRUE(collect_events().empty());
  EXPECT_EQ(events_recorded(), 0u);
  instant(Layer::kApp);
  EXPECT_EQ(collect_events().size(), 1u) << "recording resumes after reset";
}

TEST_F(TraceTest, SpansFeedLayerLatencyHistograms) {
  const Snapshot before = Registry::global().snapshot();
  const auto series = "cricket_span_latency_ns{layer=\"gpu.launch\"}";
  const std::uint64_t base = before.histograms.count(series)
                                 ? before.histograms.at(series).hist.total()
                                 : 0;
  {
    Span span(Layer::kGpuLaunch);
    clock_.advance(1 << 12);
  }
  const Snapshot after = Registry::global().snapshot();
  ASSERT_TRUE(after.histograms.count(series));
  EXPECT_EQ(after.histograms.at(series).hist.total(), base + 1);
}

TEST_F(TraceTest, ConcurrentSpansAndCollect) {
  constexpr int kThreads = 4;
  constexpr int kSpans = 2000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([this, t] {
      ScopedXid xid(static_cast<std::uint32_t>(t) + 1);
      for (int i = 0; i < kSpans; ++i) {
        Span span(Layer::kNetTx, nullptr, static_cast<std::uint64_t>(i));
        clock_.advance(1);
      }
    });
  }
  std::thread reader([&stop] {
    while (!stop.load(std::memory_order_relaxed)) (void)collect_events();
  });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  const auto events = collect_events();
  // Rings are per-thread and large enough: every span must be present.
  std::size_t net_tx = 0;
  for (const auto& ev : events)
    if (ev.layer == Layer::kNetTx) ++net_tx;
  EXPECT_EQ(net_tx, static_cast<std::size_t>(kThreads) * kSpans);
}

// ---------------------------------------------------------------------------
// Cross-thread xid stitching through an RPC server with pipelined intake
// ---------------------------------------------------------------------------

TEST_F(TraceTest, PipelinedServerHandsXidAcrossThreads) {
  constexpr std::uint32_t kProg = 0x20000077;
  constexpr std::uint32_t kVers = 1;
  constexpr std::uint32_t kProcAdd = 1;
  rpc::ServiceRegistry registry;
  registry.register_typed<std::uint32_t, std::uint32_t, std::uint32_t>(
      kProg, kVers, kProcAdd,
      [](std::uint32_t a, std::uint32_t b) { return a + b; });

  auto [client_end, server_end] = rpc::make_pipe_pair();
  std::thread server([&registry, transport = std::move(server_end)] {
    rpc::serve_transport(registry, *transport,
                         rpc::ServeOptions{.workers = 2});
  });
  {
    rpc::RpcClient client(std::move(client_end), kProg, kVers);
    for (std::uint32_t i = 0; i < 4; ++i)
      EXPECT_EQ((client.call<std::uint32_t>(kProcAdd, i, i)), 2 * i);
  }  // closing the client ends the serve loop
  server.join();
  disable_tracing();

  const auto events = collect_events();
  bool found_cross_thread = false;
  for (const auto& dispatch : events) {
    if (std::string(dispatch.name) != "server.dispatch") continue;
    ASSERT_NE(dispatch.xid, 0u) << "the serve loop must set the call xid";
    for (const auto& client_ev : events) {
      if (std::string(client_ev.name) != "client.serialize") continue;
      if (client_ev.xid == dispatch.xid && client_ev.tid != dispatch.tid)
        found_cross_thread = true;
    }
  }
  EXPECT_TRUE(found_cross_thread)
      << "expected a server.dispatch span sharing an xid with a "
         "client.serialize span on a different thread";
}

#endif  // !CRICKET_OBS_DISABLE

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(ChromeTrace, JsonGolden) {
  std::vector<TraceEvent> events;
  events.push_back(TraceEvent{.start_ns = 1500,
                              .dur_ns = 2500,
                              .arg = 64,
                              .xid = 7,
                              .tid = 1,
                              .layer = Layer::kVnetTx,
                              .instant = false,
                              .name = nullptr});
  events.push_back(TraceEvent{.start_ns = 4000,
                              .dur_ns = 0,
                              .arg = 0,
                              .xid = 7,
                              .tid = 2,
                              .layer = Layer::kChanReply,
                              .instant = true,
                              .name = nullptr});
  EXPECT_EQ(chrome_trace_json(events),
            "{\"traceEvents\":[\n"
            "{\"name\":\"vnet.tx\",\"cat\":\"vnet\",\"ph\":\"X\","
            "\"ts\":1.500,\"dur\":2.500,\"pid\":1,\"tid\":1,"
            "\"args\":{\"xid\":7,\"arg\":64}},\n"
            "{\"name\":\"chan.reply\",\"cat\":\"chan\",\"ph\":\"i\","
            "\"s\":\"t\",\"ts\":4.000,\"pid\":1,\"tid\":2,"
            "\"args\":{\"xid\":7,\"arg\":0}}\n"
            "]}\n");
}

TEST(ChromeTrace, EmptyEventListIsValidJson) {
  EXPECT_EQ(chrome_trace_json({}), "{\"traceEvents\":[\n]}\n");
}

TEST(LayerTable, NamesAndCategoriesAreComplete) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(Layer::kCount); ++i) {
    const auto layer = static_cast<Layer>(i);
    ASSERT_NE(layer_name(layer), nullptr);
    ASSERT_NE(layer_category(layer), nullptr);
    EXPECT_GT(std::string(layer_name(layer)).size(), 0u);
  }
  EXPECT_STREQ(layer_name(Layer::kServerDispatch), "server.dispatch");
  EXPECT_STREQ(layer_category(Layer::kServerDispatch), "server");
  EXPECT_STREQ(layer_name(Layer::kGpuMemcpy), "gpu.memcpy");
  EXPECT_STREQ(layer_category(Layer::kGpuMemcpy), "gpu");
}

#if !defined(CRICKET_OBS_DISABLE)

TEST(TraceSessionTest, WritesTraceAndMetricsFiles) {
  const std::string trace_path = testing::TempDir() + "obs_trace_test.json";
  const std::string metrics_path = testing::TempDir() + "obs_metrics_test.txt";
  {
    TraceSession session(trace_path, metrics_path);
    EXPECT_TRUE(session.active());
    {
      Span span(Layer::kApp, "session-span");
    }
    EXPECT_TRUE(session.flush());
  }
  std::ifstream trace_file(trace_path);
  ASSERT_TRUE(trace_file.good());
  std::stringstream trace_text;
  trace_text << trace_file.rdbuf();
  EXPECT_NE(trace_text.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_text.str().find("session-span"), std::string::npos);

  std::ifstream metrics_file(metrics_path);
  ASSERT_TRUE(metrics_file.good());
  std::stringstream metrics_text;
  metrics_text << metrics_file.rdbuf();
  EXPECT_NE(metrics_text.str().find("cricket_span_latency_ns"),
            std::string::npos);
  // Tracing was disabled by flush(); leave the collector clean.
  reset_trace();
}

#endif  // !CRICKET_OBS_DISABLE

}  // namespace
}  // namespace cricket::obs
