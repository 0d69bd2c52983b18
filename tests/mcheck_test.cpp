// mcheck: the checker checking itself, then checking the product.
//
// Three layers:
//   1. LockGraph unit tests — edges, cycles, self-deadlocks, JSON dump.
//   2. Explorer self-checks against the intentionally broken fixtures in
//      mcheck_mutants.hpp (it must flag both mutants and pass both fixes),
//      plus determinism and seed-replay guarantees.
//   3. Model tests over five production concurrency cores: tenancy token
//      bucket, obs seqlock ring, fair-share scheduler vtime accounting, DRC
//      condvar parking, and the rpc call batcher.
//
// These tests install their own observers (LockGraph::install saves and
// restores, explore() swaps for its run), so the mutants' inverted lock
// orders never leak into the suite-wide CRICKET_LOCKCHECK graph.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cricket/scheduler.hpp"
#include "mcheck/explorer.hpp"
#include "mcheck/lock_graph.hpp"
#include "mcheck_mutants.hpp"
#include "obs/trace.hpp"
#include "rpc/batcher.hpp"
#include "rpc/rpc_msg.hpp"
#include "rpc/server.hpp"
#include "sim/annotations.hpp"
#include "sim/sim_clock.hpp"
#include "tenancy/token_bucket.hpp"

namespace cricket {
namespace {

using mcheck::ExploreOptions;
using mcheck::ExploreResult;
using mcheck::explore;
using mcheck::LockGraph;
using mcheck::model_assert;

// ---------------------------------------------------------------------------
// 1. LockGraph

TEST(LockGraph, CleanOrderHasNoCycles) {
  LockGraph graph;
  graph.install();
  sim::Mutex a;
  sim::Mutex b;
  {
    sim::MutexLock la(a);
    sim::MutexLock lb(b);
  }
  {
    sim::MutexLock la(a);
    sim::MutexLock lb(b);
  }
  graph.uninstall();
  EXPECT_EQ(graph.cycles().size(), 0u);
  EXPECT_EQ(graph.self_deadlocks(), 0u);
  ASSERT_EQ(graph.edges().size(), 1u);
  EXPECT_EQ(graph.edges()[0].count, 2u);
  EXPECT_TRUE(graph.report().empty());
}

TEST(LockGraph, InversionProducesCycleWithDiagnostics) {
  LockGraph graph;
  sim::Mutex a;
  sim::Mutex b;
  // Two call paths ordering the classes differently — exactly the latent
  // hazard lockdep-style analysis exists to catch: no deadlock ever
  // manifests, the cycle is still there. Fed through the observer hooks
  // directly rather than by really locking in inverted orders, so TSan's
  // own lock-order detector does not report the intentional inversion as a
  // finding of its own.
  const auto here = std::source_location::current();
  graph.lock_acquired(a, here);
  graph.lock_acquired(b, here);
  graph.unlocked(b, here);
  graph.unlocked(a, here);
  graph.lock_acquired(b, here);
  graph.lock_acquired(a, here);
  graph.unlocked(a, here);
  graph.unlocked(b, here);
  const auto cycles = graph.cycles();
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].nodes.size(), 2u);
  ASSERT_EQ(cycles[0].edges.size(), 2u);
  const std::string report = graph.report();
  EXPECT_NE(report.find("lock-order cycle"), std::string::npos);
  // Diagnostics carry acquisition sites in this file.
  EXPECT_NE(report.find("mcheck_test.cpp"), std::string::npos);
}

TEST(LockGraph, SelfRelockIsReportedAsSelfDeadlock) {
  LockGraph graph;
  graph.install();
  sim::Mutex mu;
  mu.lock();
  // Feed the re-lock attempt through the observer hook directly: actually
  // calling mu.lock() again would hard-block this thread on the native
  // mutex, which is precisely why the graph flags it.
  graph.lock_pending(mu, std::source_location::current());
  mu.unlock();
  graph.uninstall();
  EXPECT_EQ(graph.self_deadlocks(), 1u);
  EXPECT_NE(graph.report().find("self-deadlock"), std::string::npos);
}

TEST(LockGraph, CondVarReacquireRecordsOrdering) {
  LockGraph graph;
  graph.install();
  sim::Mutex outer;
  sim::Mutex inner;
  sim::CondVar cv;
  {
    sim::MutexLock lo(outer);
    sim::MutexLock li(inner);
    // Timed wait that must expire: the re-acquire after the wait is an
    // ordering event (outer held across it) like the initial acquire.
    EXPECT_EQ(cv.wait_for(inner, std::chrono::microseconds(50)),
              std::cv_status::timeout);
  }
  graph.uninstall();
  ASSERT_EQ(graph.edges().size(), 1u);
  EXPECT_GE(graph.edges()[0].count, 2u);  // initial acquire + cv re-acquire
  EXPECT_EQ(graph.cycles().size(), 0u);
}

TEST(LockGraph, DumpJsonWritesMergeableEdges) {
  LockGraph graph;
  graph.install();
  sim::Mutex a;
  sim::Mutex b;
  {
    sim::MutexLock la(a);
    sim::MutexLock lb(b);
  }
  graph.uninstall();
  const std::string path = ::testing::TempDir() + "lockgraph-test.json";
  ASSERT_TRUE(graph.dump_json(path));
  std::ifstream in(path);
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"edges\""), std::string::npos);
  EXPECT_NE(json.find("\"self_deadlocks\":0"), std::string::npos);
  // Lock classes are instance *construction* sites ("batcher.hpp:87"), so
  // per-process dumps merge on identities stable across the whole suite.
  EXPECT_NE(json.find("mcheck_test.cpp"), std::string::npos) << json;
  std::remove(path.c_str());
}

TEST(LockGraph, InstallRestoresPreviousObserver) {
  // Under CRICKET_LOCKCHECK=1 the suite-wide graph already occupies the
  // seam; this test must hand it back, not assume an empty seam.
  sim::SyncObserver* const ambient = sim::sync_observer();
  LockGraph outer_graph;
  outer_graph.install();
  {
    LockGraph inner;
    inner.install();
    EXPECT_EQ(sim::sync_observer(), &inner);
    inner.uninstall();
  }
  EXPECT_EQ(sim::sync_observer(), &outer_graph);
  outer_graph.uninstall();
  EXPECT_EQ(sim::sync_observer(), ambient);
}

// ---------------------------------------------------------------------------
// 2. Explorer self-checks on the mutants

TEST(Explorer, FindsLockOrderInversionDeadlock) {
  const ExploreResult r =
      explore(ExploreOptions{}, mcheck_test::lock_order_inverted_body);
  ASSERT_TRUE(r.failed);
  EXPECT_TRUE(r.deadlock);
  EXPECT_NE(r.failure.find("deadlock"), std::string::npos);
  EXPECT_NE(r.failure.find("lock"), std::string::npos);
  EXPECT_FALSE(r.trace.empty());
}

TEST(Explorer, ReplayReproducesTheDeadlock) {
  const ExploreResult first =
      explore(ExploreOptions{}, mcheck_test::lock_order_inverted_body);
  ASSERT_TRUE(first.failed);
  ExploreOptions replay;
  replay.replay = first.trace;
  const ExploreResult again =
      explore(replay, mcheck_test::lock_order_inverted_body);
  EXPECT_TRUE(again.failed);
  EXPECT_TRUE(again.deadlock);
  EXPECT_EQ(again.schedules, 1u) << "replay must run exactly one schedule";
  EXPECT_EQ(again.trace, first.trace);
}

TEST(Explorer, PassesFixedLockOrder) {
  const ExploreResult r =
      explore(ExploreOptions{}, mcheck_test::lock_order_fixed_body);
  EXPECT_FALSE(r.failed) << r.failure << " trace=" << r.trace;
  EXPECT_TRUE(r.exhausted);
  EXPECT_GT(r.schedules, 1u) << "the space has more than one interleaving";
}

TEST(Explorer, FindsLostWakeup) {
  const ExploreResult r =
      explore(ExploreOptions{}, mcheck_test::lost_wakeup_body);
  ASSERT_TRUE(r.failed) << "after " << r.schedules << " schedules";
  EXPECT_TRUE(r.deadlock);
  EXPECT_NE(r.failure.find("cv_wait"), std::string::npos)
      << "the stuck thread should be parked in the wait: " << r.failure;
}

TEST(Explorer, PassesFixedWakeup) {
  const ExploreResult r =
      explore(ExploreOptions{}, mcheck_test::lost_wakeup_fixed_body);
  EXPECT_FALSE(r.failed) << r.failure << " trace=" << r.trace;
  EXPECT_TRUE(r.exhausted);
}

TEST(Explorer, SameSeedSameScheduleSequence) {
  ExploreOptions opt;
  opt.seed = 42;
  const ExploreResult a = explore(opt, mcheck_test::lock_order_inverted_body);
  const ExploreResult b = explore(opt, mcheck_test::lock_order_inverted_body);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.schedules, b.schedules);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.failure, b.failure);
}

TEST(Explorer, DifferentSeedsStillFindTheBug) {
  for (const std::uint64_t seed : {1ull, 7ull, 12345ull}) {
    ExploreOptions opt;
    opt.seed = seed;
    const ExploreResult r =
        explore(opt, mcheck_test::lock_order_inverted_body);
    EXPECT_TRUE(r.failed) << "seed " << seed;
  }
}

TEST(Explorer, ModelAssertFailureCarriesMessageAndTrace) {
  ExploreOptions opt;
  const ExploreResult r = explore(opt, [] {
    int hits = 0;
    mcheck::spawn([&] {
      sim::sync_point(&hits);
      ++hits;
    });
    mcheck::join_children();
    model_assert(hits == 2, "hits should be 2 (intentionally wrong)");
  });
  ASSERT_TRUE(r.failed);
  EXPECT_FALSE(r.deadlock);
  EXPECT_NE(r.failure.find("intentionally wrong"), std::string::npos);
}

TEST(Explorer, UnderExplorationOnlyInsideBodies) {
  EXPECT_FALSE(mcheck::under_exploration());
  bool inside = false;
  const ExploreResult r = explore(ExploreOptions{}, [&] {
    inside = mcheck::under_exploration();
  });
  EXPECT_FALSE(r.failed);
  EXPECT_TRUE(inside);
  EXPECT_FALSE(mcheck::under_exploration());
}

TEST(Explorer, RejectsNestedExploration) {
  const ExploreResult r = explore(ExploreOptions{}, [] {
    EXPECT_THROW((void)explore(ExploreOptions{}, [] {}), std::logic_error);
  });
  EXPECT_FALSE(r.failed) << r.failure;
}

TEST(Explorer, PreemptionBoundShrinksTheSpace) {
  const auto body = mcheck_test::lock_order_fixed_body;
  ExploreOptions tight;
  tight.preemption_bound = 0;
  ExploreOptions loose;
  loose.preemption_bound = 2;
  const ExploreResult a = explore(tight, body);
  const ExploreResult b = explore(loose, body);
  EXPECT_FALSE(a.failed);
  EXPECT_FALSE(b.failed);
  EXPECT_LT(a.schedules, b.schedules);
}

// ---------------------------------------------------------------------------
// 3. Production cores under the explorer

// Core 1: tenancy::TokenBucket under its SessionManager-style mutex. Two
// admitters race for a bucket that only fits one of them; every
// interleaving must admit exactly one (no double-spend, no lost refusal).
TEST(ModelTenancy, TokenBucketNeverOversubscribes) {
  const ExploreResult r = explore(ExploreOptions{}, [] {
    sim::Mutex mu;
    tenancy::TokenBucket bucket(/*rate=*/1, /*burst=*/100);
    int admitted = 0;
    for (int i = 0; i < 2; ++i) {
      mcheck::spawn([&] {
        sim::MutexLock lock(mu);
        if (bucket.try_take(60, /*now=*/0)) ++admitted;
      });
    }
    mcheck::join_children();
    model_assert(admitted == 1, "exactly one 60B take fits a 100B burst");
  });
  EXPECT_FALSE(r.failed) << r.failure << " trace=" << r.trace;
  EXPECT_TRUE(r.exhausted);
}

// Core 2: the obs seqlock ring. A writer records spans while a collector
// reads concurrently; the seqlock must never surface a torn event (the
// sync_point markers in trace.cpp give the explorer preemption points
// inside the protocol window).
TEST(ModelObs, SeqlockCollectorNeverSeesTornEvents) {
  // Warm every function-local static (collector singleton, tid counter)
  // single-threaded before exploring: their init guards are real locks the
  // scheduler cannot see.
  obs::TraceOptions warm;
  warm.ring_capacity = 8;
  warm.latency_metrics = false;
  obs::enable_tracing(warm);
  sim::SimClock clock;
  obs::bind_clock(&clock);
  obs::instant(obs::Layer::kApp, "warmup", 0);
  (void)obs::collect_events();

  ExploreOptions opt;
  opt.max_schedules = 2048;
  const ExploreResult r = explore(opt, [&] {
    obs::reset_trace();  // fresh epoch: only this run's rings collect
    mcheck::spawn([&] {
      obs::instant(obs::Layer::kGpuLaunch, "k1", 11);
      obs::instant(obs::Layer::kGpuLaunch, "k2", 22);
    });
    std::vector<obs::TraceEvent> seen;
    mcheck::spawn([&] { seen = obs::collect_events(); });
    mcheck::join_children();
    for (const obs::TraceEvent& ev : seen) {
      // A torn slot would pair one event's name with the other's arg (or
      // garbage from the odd window). The seqlock retry must discard it.
      const bool k1 = ev.name == std::string("k1") && ev.arg == 11;
      const bool k2 = ev.name == std::string("k2") && ev.arg == 22;
      model_assert(k1 || k2, "collected event is internally consistent");
      model_assert(ev.layer == obs::Layer::kGpuLaunch, "layer not torn");
    }
    model_assert(seen.size() <= 2, "no duplicated events");
  });
  obs::bind_clock(nullptr);
  obs::disable_tracing();
  EXPECT_FALSE(r.failed) << r.failure << " trace=" << r.trace;
  EXPECT_GT(r.schedules, 1u);
}

// Core 3: fair-share scheduler vtime accounting in its deterministic pure
// virtual-time mode (max_real_block = 0 — a steady_clock block would break
// schedule determinism AND the model). Concurrent admit/record_usage from
// two sessions must lose no usage and keep stats additive.
TEST(ModelScheduler, VtimeAccountingSurvivesInterleaving) {
  const ExploreResult r = explore(ExploreOptions{}, [] {
    sim::SimClock clock;
    core::SchedulerOptions opts;
    opts.quantum = sim::kMillisecond;
    opts.max_real_block = std::chrono::nanoseconds{0};
    core::KernelScheduler sched(core::SchedulerPolicy::kFairShare, clock,
                                opts);
    sched.session_open(1);
    sched.session_open(2);
    for (const std::uint64_t sid : {1ull, 2ull}) {
      mcheck::spawn([&, sid] {
        const sim::Nanos wait = sched.admit(sid);
        model_assert(wait >= 0, "admit never returns negative wait");
        sched.record_usage(sid, 500 * sim::kMicrosecond);
      });
    }
    mcheck::join_children();
    const auto s1 = sched.stats(1);
    const auto s2 = sched.stats(2);
    model_assert(s1.launches == 1 && s2.launches == 1, "one launch each");
    model_assert(
        s1.device_time_ns + s2.device_time_ns == sim::kMillisecond,
        "usage accounting lost an update");
    sched.session_close(1);
    sched.session_close(2);
  });
  EXPECT_FALSE(r.failed) << r.failure << " trace=" << r.trace;
  EXPECT_TRUE(r.exhausted);
}

// Core 4: the DRC condvar parking race. Two connections sharing one
// registry (TcpRpcServer) dispatch the same xid concurrently; at-most-once demands the handler executes exactly once —
// the duplicate either hits the cache or parks on the condvar until the
// first execution completes, then answers from cache.
TEST(ModelDrc, DuplicateDispatchExecutesHandlerOnce) {
  // Pre-warm dispatch()'s function-local static (the drc-hits counter, which
  // registers under the obs::Registry mutex on first use): first-run-only
  // lock traffic would make executions diverge inside explore().
  {
    rpc::ServiceRegistry warm;
    warm.register_proc(100, 1, 5, [](std::span<const std::uint8_t>) {
      return std::vector<std::uint8_t>{};
    });
    warm.enable_duplicate_cache();
    rpc::CallMsg probe;
    probe.xid = 1;
    probe.prog = 100;
    probe.vers = 1;
    probe.proc = 5;
    (void)warm.dispatch(probe);
  }
  ExploreOptions opt;
  opt.max_schedules = 2048;
  const ExploreResult r = explore(opt, [] {
    rpc::ServiceRegistry registry;
    // Plain int is safe: the handler body runs outside drc.mu, but the
    // at-most-once property under test means only one thread ever runs it.
    // (If that property broke, the explorer would catch the assert below
    // before any torn counter could confuse the diagnosis.)
    std::atomic<int> executions{0};
    registry.register_proc(100, 1, 5, [&](std::span<const std::uint8_t>) {
      executions.fetch_add(1, std::memory_order_relaxed);
      return std::vector<std::uint8_t>{0xAB};
    });
    registry.enable_duplicate_cache();
    rpc::CallMsg call;
    call.xid = 77;
    call.prog = 100;
    call.vers = 1;
    call.proc = 5;
    int accepted = 0;
    for (int i = 0; i < 2; ++i) {
      mcheck::spawn([&] {
        const rpc::ReplyMsg reply = registry.dispatch(call);
        sim::sync_point(&accepted);
        if (reply.stat == rpc::ReplyStat::kAccepted) ++accepted;
      });
    }
    mcheck::join_children();
    model_assert(executions.load() == 1, "at-most-once: one execution");
    model_assert(accepted == 2, "both callers get the accepted reply");
    model_assert(registry.drc_stats().insertions == 1, "one cache insert");
  });
  EXPECT_FALSE(r.failed) << r.failure << " trace=" << r.trace;
  EXPECT_GT(r.schedules, 1u);
}

// Core 5: the rpc CallBatcher flush race. Two appenders race a
// threshold flush; no record may be lost or sent twice, whatever the order.
TEST(ModelBatcher, ConcurrentAppendsLoseNothing) {
  struct CountingTransport final : rpc::Transport {
    std::atomic<std::size_t> bytes{0};
    std::atomic<int> sends{0};
    void send(std::span<const std::uint8_t> data) override {
      bytes.fetch_add(data.size(), std::memory_order_relaxed);
      sends.fetch_add(1, std::memory_order_relaxed);
    }
    std::size_t recv(std::span<std::uint8_t>) override { return 0; }
    void shutdown() override {}
  };
  const ExploreResult r = explore(ExploreOptions{}, [] {
    CountingTransport transport;
    rpc::CallBatcher::Options opts;
    opts.enabled = true;
    opts.max_calls = 2;  // second append triggers the full-flush path
    rpc::CallBatcher batcher(transport, opts);
    const std::vector<std::uint8_t> record(32, 0x5A);
    for (int i = 0; i < 2; ++i) {
      mcheck::spawn([&] { batcher.append(record); });
    }
    mcheck::join_children();
    batcher.flush();
    const auto stats = batcher.stats();
    model_assert(stats.records == 2, "both records accepted");
    model_assert(stats.bytes == transport.bytes.load(),
                 "sent bytes match accounted bytes (nothing lost/duped)");
    model_assert(batcher.buffered() == 0, "flush drained the buffer");
  });
  EXPECT_FALSE(r.failed) << r.failure << " trace=" << r.trace;
  EXPECT_TRUE(r.exhausted);
}

}  // namespace
}  // namespace cricket
