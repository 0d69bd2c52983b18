#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "fatbin/cubin.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_props.hpp"
#include "gpusim/kernel.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/thread_pool.hpp"
#include "sim/sim_clock.hpp"
#include "xdr/taint.hpp"

namespace cricket::gpusim {
namespace {

// ------------------------------- thread pool -------------------------------

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ExceptionsPropagate) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 57) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ChunkedVariantCoversRange) {
  ThreadPool pool(3);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for_chunks(10'000, [&](std::size_t b, std::size_t e) {
    std::size_t local = 0;
    for (std::size_t i = b; i < e; ++i) local += i;
    sum += local;
  });
  EXPECT_EQ(sum.load(), 10'000ull * 9'999 / 2);
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> n{0};
    pool.parallel_for(64, [&](std::size_t) { ++n; });
    EXPECT_EQ(n.load(), 64);
  }
}

// --------------------------------- memory ----------------------------------

TEST(MemoryManager, AllocateResolveFree) {
  MemoryManager mm(1 << 20);
  const DevPtr p = mm.allocate(100);
  EXPECT_NE(p, 0u);
  auto span = mm.resolve(p, 100);
  std::memset(span.data(), 0x5A, span.size());
  EXPECT_EQ(mm.resolve(p, 100)[99], 0x5A);
  mm.free(p);
  EXPECT_EQ(mm.bytes_in_use(), 0u);
}

TEST(MemoryManager, FreshAllocationIsZeroed) {
  MemoryManager mm(1 << 20);
  const DevPtr p = mm.allocate(256);
  for (auto b : mm.resolve(p, 256)) EXPECT_EQ(b, 0);
}

TEST(MemoryManager, DoubleFreeThrows) {
  MemoryManager mm(1 << 20);
  const DevPtr p = mm.allocate(64);
  mm.free(p);
  EXPECT_THROW(mm.free(p), MemoryError);
}

TEST(MemoryManager, FreeOfInteriorPointerThrows) {
  MemoryManager mm(1 << 20);
  const DevPtr p = mm.allocate(1024);
  EXPECT_THROW(mm.free(p + 8), MemoryError);
  mm.free(p);
}

TEST(MemoryManager, UseAfterFreeThrows) {
  MemoryManager mm(1 << 20);
  const DevPtr p = mm.allocate(64);
  mm.free(p);
  EXPECT_THROW((void)mm.resolve(p, 1), MemoryError);
}

TEST(MemoryManager, OutOfBoundsResolveThrows) {
  MemoryManager mm(1 << 20);
  const DevPtr p = mm.allocate(100);
  EXPECT_THROW((void)mm.resolve(p, 101), MemoryError);
  EXPECT_THROW((void)mm.resolve(p + 50, 51), MemoryError);
  EXPECT_NO_THROW((void)mm.resolve(p + 50, 50));
  mm.free(p);
}

TEST(MemoryManager, ZeroByteAllocationThrows) {
  MemoryManager mm(1 << 20);
  EXPECT_THROW((void)mm.allocate(0), MemoryError);
}

TEST(MemoryManager, OutOfMemoryThrows) {
  MemoryManager mm(1 << 20);
  EXPECT_THROW((void)mm.allocate(2 << 20), OutOfMemory);
}

TEST(MemoryManager, ExhaustionThenReuseAfterFree) {
  MemoryManager mm(1024);
  const DevPtr a = mm.allocate(512);
  const DevPtr b = mm.allocate(512);
  EXPECT_THROW((void)mm.allocate(256), OutOfMemory);
  mm.free(a);
  const DevPtr c = mm.allocate(512);
  EXPECT_EQ(c, a);  // hole reused
  mm.free(b);
  mm.free(c);
}

TEST(MemoryManager, CoalescingAllowsFullReallocation) {
  MemoryManager mm(4096);
  std::vector<DevPtr> ptrs;
  for (int i = 0; i < 16; ++i) ptrs.push_back(mm.allocate(256));
  // Free in an interleaved order to stress both coalescing directions.
  for (int i = 0; i < 16; i += 2) mm.free(ptrs[static_cast<std::size_t>(i)]);
  for (int i = 1; i < 16; i += 2) mm.free(ptrs[static_cast<std::size_t>(i)]);
  // If coalescing works, the whole arena is one hole again.
  const DevPtr big = mm.allocate(4096);
  mm.free(big);
}

TEST(MemoryManager, GranularityRounding) {
  MemoryManager mm(1 << 20);
  (void)mm.allocate(1);
  EXPECT_EQ(mm.bytes_in_use(), MemoryManager::kGranularity);
}

TEST(MemoryManager, LiveEnumerationMatches) {
  MemoryManager mm(1 << 20);
  const DevPtr a = mm.allocate(100);
  const DevPtr b = mm.allocate(200);
  auto live = mm.live();
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0].first, a);
  EXPECT_EQ(live[0].second, 100u);
  EXPECT_EQ(live[1].first, b);
  mm.free(a);
  mm.free(b);
}

TEST(MemoryManager, MemsetWritesPattern) {
  MemoryManager mm(1 << 20);
  const DevPtr p = mm.allocate(64);
  mm.memset(p, 0x7F, 64);
  for (auto byte : mm.resolve(p, 64)) EXPECT_EQ(byte, 0x7F);
  mm.free(p);
}

// ------------------------------ zero invariant ------------------------------
// Device memory is one lazily mapped arena whose free holes always read as
// zero: free() clears what the allocation wrote, allocate() writes nothing.

TEST(MemoryManager, FreedRangeBetweenLiveNeighboursReadsZerosAgain) {
  MemoryManager mm(1 << 20);
  // `mid` starts and ends inside pages it shares with `left` and `right`,
  // and covers whole pages in between: free() takes both the memset and
  // the page-release route.
  constexpr std::uint64_t kMid = 3 * 4096 + 512;
  const DevPtr left = mm.allocate(1000);
  const DevPtr mid = mm.allocate(kMid);
  const DevPtr right = mm.allocate(1000);
  mm.memset(left, 0xAA, 1000);
  mm.memset(mid, 0xFF, kMid);
  mm.memset(right, 0xCC, 1000);
  mm.free(mid);
  const DevPtr again = mm.allocate(kMid);
  ASSERT_EQ(again, mid);  // first fit: the hole between the neighbours
  for (auto byte : mm.resolve(again, kMid)) ASSERT_EQ(byte, 0);
  for (auto byte : mm.resolve(left, 1000)) ASSERT_EQ(byte, 0xAA);
  for (auto byte : mm.resolve(right, 1000)) ASSERT_EQ(byte, 0xCC);
}

TEST(MemoryManager, AllocateAtIntoWrittenHoleReadsZeros) {
  MemoryManager mm(1 << 20);
  const DevPtr p = mm.allocate(64 << 10);
  mm.memset(p, 0xFF, 64 << 10);
  mm.free(p);
  const DevPtr q = p + 4 * MemoryManager::kGranularity;
  mm.allocate_at(q, 20000);
  for (auto byte : mm.resolve(q, 20000)) ASSERT_EQ(byte, 0);
}

/// Resident set size of this process in bytes (VmRSS).
std::uint64_t resident_bytes() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmRSS:", 0) == 0) return std::stoull(line.substr(6)) << 10;
  return 0;
}

TEST(MemoryManager, UnwrittenAllocationTakesNoResidentMemory) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "ASan writes 1/8 of every poisoned range as shadow memory";
#endif
  MemoryManager mm(a100_props().mem_bytes);
  const std::uint64_t before = resident_bytes();
  ASSERT_GT(before, 0u);
  const DevPtr p = mm.allocate(1ull << 30);
  const std::uint64_t allocated = resident_bytes();
  mm.free(p);
  EXPECT_LT(allocated - before, 16ull << 20);
  EXPECT_LT(resident_bytes() - before, 16ull << 20);
}

TEST(MemoryManager, PadTailAndFreedRangeArePoisonedUnderAsan) {
#if defined(__SANITIZE_ADDRESS__)
  MemoryManager mm(1 << 20);
  const DevPtr p = mm.allocate(100);
  const std::uint8_t* const bytes = mm.resolve(p, 100).data();
  EXPECT_FALSE(__asan_address_is_poisoned(bytes + 99));
  EXPECT_TRUE(__asan_address_is_poisoned(bytes + 100));  // pad tail
  EXPECT_TRUE(
      __asan_address_is_poisoned(bytes + MemoryManager::kGranularity - 1));
  mm.free(p);
  EXPECT_TRUE(__asan_address_is_poisoned(bytes));  // freed range
  // Allocating the range again makes it addressable again.
  ASSERT_EQ(mm.allocate(256), p);
  EXPECT_FALSE(__asan_address_is_poisoned(bytes));
  EXPECT_FALSE(__asan_address_is_poisoned(bytes + 255));
#else
  GTEST_SKIP() << "needs an AddressSanitizer build";
#endif
}

// ------------------------------- wiretaint ---------------------------------
// Overflow regressions: pointer/length math near UINT64_MAX must refuse —
// never wrap into an apparently-valid range — and must leave the arena
// untouched.

TEST(MemoryManager, ResolveRefusesLengthThatWouldWrapPastU64) {
  MemoryManager mm(1 << 20);
  const DevPtr p = mm.allocate(64);
  // (p + 32) + (~0ull - 16) wraps past zero; a naive `off + len <= end`
  // comparison would see the range as inside the allocation.
  EXPECT_THROW((void)mm.resolve(p + 32, ~0ull - 16), MemoryError);
  EXPECT_THROW(mm.memset(p + 32, 0xFF, ~0ull - 16), MemoryError);
  for (auto byte : mm.resolve(p, 64)) EXPECT_EQ(byte, 0);  // untouched
  mm.free(p);
}

TEST(MemoryManager, AllocateRefusesSizeWhoseRoundingWraps) {
  MemoryManager mm(1 << 20);
  // Rounding ~0ull - 3 up to the 256-byte granularity would wrap to a tiny
  // padded size that "fits".
  EXPECT_THROW((void)mm.allocate(~0ull - 3), OutOfMemory);
  EXPECT_EQ(mm.bytes_in_use(), 0u);
  EXPECT_EQ(mm.allocation_count(), 0u);
}

TEST(MemoryManager, ValidatedSeamsRefuseHostileWireLengths) {
  MemoryManager mm(1 << 20);
  const DevPtr p = mm.allocate(64);
  EXPECT_THROW(
      (void)mm.resolve_validated(p, xdr::Untrusted<std::uint64_t>(~0ull)),
      MemoryError);
  EXPECT_THROW(
      mm.memset_validated(p, 0xFF, xdr::Untrusted<std::uint64_t>(~0ull - 8)),
      MemoryError);
  // Refusal is pre-mutation: the allocation still reads as fresh zeroes.
  for (auto byte : mm.resolve(p, 64)) EXPECT_EQ(byte, 0);
  // In-bound wire lengths behave exactly like the trusted entry points.
  mm.memset_validated(p, 0x7F, xdr::Untrusted<std::uint64_t>(64));
  for (auto byte : mm.resolve_validated(p, xdr::Untrusted<std::uint64_t>(64)))
    EXPECT_EQ(byte, 0x7F);
  // A placement record whose end wraps the address space is simply "no".
  EXPECT_FALSE(
      mm.can_allocate_at_validated(xdr::Untrusted<DevPtr>(~0ull - 64),
                                   xdr::Untrusted<std::uint64_t>(4096)));
  mm.free(p);
}

// --------------------------------- device ----------------------------------

fatbin::CubinImage device_test_image() {
  fatbin::CubinImage img;
  img.sm_arch = 80;
  fatbin::KernelDescriptor saxpy;
  saxpy.name = "saxpy";
  saxpy.params = {{.size = 8, .align = 8, .is_pointer = true},   // y
                  {.size = 8, .align = 8, .is_pointer = true},   // x
                  {.size = 4, .align = 4, .is_pointer = false},  // a
                  {.size = 4, .align = 4, .is_pointer = false}}; // n
  img.kernels.push_back(saxpy);

  fatbin::GlobalSymbol g;
  g.name = "g_counter";
  g.size = 4;
  img.globals.push_back(g);
  img.code = fatbin::make_pseudo_isa(128, 1);
  return img;
}

void register_saxpy(KernelRegistry& reg) {
  reg.register_kernel("saxpy", [](LaunchContext& ctx) {
    const DevPtr y = ctx.ptr_param(0);
    const DevPtr x = ctx.ptr_param(1);
    const float a = ctx.param<float>(2);
    const auto n = ctx.param<std::uint32_t>(3);
    auto ys = ctx.mem_as<float>(y, n);
    auto xs = ctx.mem_as<float>(x, n);
    for (std::uint32_t i = 0; i < n; ++i) ys[i] += a * xs[i];
    ctx.charge_flops(2.0 * n);
    ctx.charge_dram_bytes(12.0 * n);
  });
}

struct DeviceFixture : ::testing::Test {
  DeviceFixture() : device(a100_props(), clock, registry, pool) {
    register_saxpy(registry);
  }

  sim::SimClock clock;
  KernelRegistry registry;
  ThreadPool pool{2};
  Device device;
};

std::vector<std::uint8_t> pack_saxpy_params(DevPtr y, DevPtr x, float a,
                                            std::uint32_t n) {
  std::vector<std::uint8_t> buf(24);
  std::memcpy(buf.data() + 0, &y, 8);
  std::memcpy(buf.data() + 8, &x, 8);
  std::memcpy(buf.data() + 16, &a, 4);
  std::memcpy(buf.data() + 20, &n, 4);
  return buf;
}

TEST_F(DeviceFixture, MallocMemcpyRoundTrip) {
  const DevPtr p = device.malloc(1024);
  std::vector<std::uint8_t> in(1024);
  std::iota(in.begin(), in.end(), std::uint8_t{0});
  device.memcpy_h2d(p, in);
  std::vector<std::uint8_t> out(1024);
  device.memcpy_d2h(out, p);
  EXPECT_EQ(out, in);
  device.free(p);
  EXPECT_GT(clock.now(), 0);  // all of that charged virtual time
}

TEST_F(DeviceFixture, DeviceToDeviceCopy) {
  const DevPtr a = device.malloc(256);
  const DevPtr b = device.malloc(256);
  std::vector<std::uint8_t> in(256, 0x42);
  device.memcpy_h2d(a, in);
  device.memcpy_d2d(b, a, 256);
  std::vector<std::uint8_t> out(256);
  device.memcpy_d2h(out, b);
  EXPECT_EQ(out, in);
  EXPECT_EQ(device.stats().bytes_d2d, 256u);
}

TEST_F(DeviceFixture, ModuleLoadResolvesKernelAndGlobal) {
  const auto image = fatbin::cubin_serialize(device_test_image());
  const ModuleId mod = device.load_module(image);
  const FuncId fn = device.get_function(mod, "saxpy");
  EXPECT_EQ(device.function_desc(fn).name, "saxpy");
  const DevPtr g = device.get_global(mod, "g_counter");
  EXPECT_NE(g, 0u);
  EXPECT_THROW((void)device.get_function(mod, "nope"), DeviceError);
  EXPECT_THROW((void)device.get_global(mod, "nope"), DeviceError);
  device.unload_module(mod);
  EXPECT_THROW((void)device.get_function(mod, "saxpy"), DeviceError);
}

TEST_F(DeviceFixture, LaunchComputesSaxpy) {
  const auto image = fatbin::cubin_serialize(device_test_image());
  const ModuleId mod = device.load_module(image);
  const FuncId fn = device.get_function(mod, "saxpy");

  constexpr std::uint32_t n = 1000;
  const DevPtr x = device.malloc(n * 4);
  const DevPtr y = device.malloc(n * 4);
  std::vector<float> xs(n), ys(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    xs[i] = static_cast<float>(i);
    ys[i] = 1.0f;
  }
  device.memcpy_h2d(x, {reinterpret_cast<std::uint8_t*>(xs.data()), n * 4});
  device.memcpy_h2d(y, {reinterpret_cast<std::uint8_t*>(ys.data()), n * 4});

  device.launch(fn, Dim3{(n + 255) / 256, 1, 1}, Dim3{256, 1, 1}, 0,
                kDefaultStream, pack_saxpy_params(y, x, 2.0f, n));
  device.stream_synchronize(kDefaultStream);

  std::vector<float> out(n);
  device.memcpy_d2h({reinterpret_cast<std::uint8_t*>(out.data()), n * 4}, y);
  for (std::uint32_t i = 0; i < n; ++i)
    EXPECT_FLOAT_EQ(out[i], 1.0f + 2.0f * static_cast<float>(i));
  EXPECT_EQ(device.stats().kernels_launched, 1u);
}

TEST_F(DeviceFixture, LaunchValidatesParamBufferSize) {
  const ModuleId mod =
      device.load_module(fatbin::cubin_serialize(device_test_image()));
  const FuncId fn = device.get_function(mod, "saxpy");
  const std::vector<std::uint8_t> short_params(8);
  EXPECT_THROW(device.launch(fn, Dim3{1}, Dim3{1}, 0, kDefaultStream,
                             short_params),
               LaunchError);
}

TEST_F(DeviceFixture, LaunchValidatesGeometry) {
  const ModuleId mod =
      device.load_module(fatbin::cubin_serialize(device_test_image()));
  const FuncId fn = device.get_function(mod, "saxpy");
  const auto params = pack_saxpy_params(0, 0, 0, 0);
  EXPECT_THROW(device.launch(fn, Dim3{0}, Dim3{1}, 0, kDefaultStream, params),
               LaunchError);
  EXPECT_THROW(
      device.launch(fn, Dim3{1}, Dim3{2048}, 0, kDefaultStream, params),
      LaunchError);
  EXPECT_THROW(device.launch(fn, Dim3{1}, Dim3{1}, 1 << 20, kDefaultStream,
                             params),
               LaunchError);
}

TEST_F(DeviceFixture, StreamTimelinesAreIndependent) {
  const ModuleId mod =
      device.load_module(fatbin::cubin_serialize(device_test_image()));
  const FuncId fn = device.get_function(mod, "saxpy");
  const DevPtr x = device.malloc(4);
  const DevPtr y = device.malloc(4);
  const auto params = pack_saxpy_params(y, x, 1.0f, 1);

  const StreamId s1 = device.stream_create();
  const StreamId s2 = device.stream_create();
  const auto t0 = clock.now();
  device.launch(fn, Dim3{1}, Dim3{1}, 0, s1, params);
  device.launch(fn, Dim3{1}, Dim3{1}, 0, s2, params);
  // Two tiny kernels on separate streams overlap: syncing both costs about
  // one kernel's device time, not two.
  device.stream_synchronize(s1);
  const auto after_s1 = clock.now();
  device.stream_synchronize(s2);
  const auto after_s2 = clock.now();
  EXPECT_GT(after_s1, t0);
  // s2's completion should be nearly contemporaneous with s1's.
  EXPECT_LT(after_s2 - after_s1, after_s1 - t0);
  device.stream_destroy(s1);
  device.stream_destroy(s2);
}

TEST_F(DeviceFixture, SerializedLaunchesAccumulateOnOneStream) {
  const ModuleId mod =
      device.load_module(fatbin::cubin_serialize(device_test_image()));
  const FuncId fn = device.get_function(mod, "saxpy");
  const DevPtr x = device.malloc(4);
  const DevPtr y = device.malloc(4);
  const auto params = pack_saxpy_params(y, x, 1.0f, 1);

  const auto t0 = clock.now();
  device.launch(fn, Dim3{1}, Dim3{1}, 0, kDefaultStream, params);
  device.stream_synchronize(kDefaultStream);
  const auto one_kernel = clock.now() - t0;
  const auto t1 = clock.now();
  for (int i = 0; i < 10; ++i)
    device.launch(fn, Dim3{1}, Dim3{1}, 0, kDefaultStream, params);
  device.stream_synchronize(kDefaultStream);
  const auto ten_kernels = clock.now() - t1;
  // Same-stream kernels serialize on the device timeline: ten launches cost
  // several times one launch (submission pipelining allows < 10x).
  EXPECT_GE(ten_kernels, 3 * one_kernel);
}

TEST_F(DeviceFixture, EventsMeasureStreamTime) {
  const ModuleId mod =
      device.load_module(fatbin::cubin_serialize(device_test_image()));
  const FuncId fn = device.get_function(mod, "saxpy");
  constexpr std::uint32_t n = 1u << 20;
  const DevPtr x = device.malloc(n * 4);
  const DevPtr y = device.malloc(n * 4);

  const EventId start = device.event_create();
  const EventId stop = device.event_create();
  device.event_record(start, kDefaultStream);
  device.launch(fn, Dim3{n / 256}, Dim3{256}, 0, kDefaultStream,
                pack_saxpy_params(y, x, 3.0f, n));
  device.event_record(stop, kDefaultStream);
  device.event_synchronize(stop);
  const float ms = device.event_elapsed_ms(start, stop);
  EXPECT_GT(ms, 0.0f);
  device.event_destroy(start);
  device.event_destroy(stop);
}

TEST_F(DeviceFixture, EventErrors) {
  const EventId e = device.event_create();
  EXPECT_THROW((void)device.event_elapsed_ms(e, e), DeviceError);  // unrecorded
  device.event_destroy(e);
  EXPECT_THROW(device.event_destroy(e), DeviceError);
  EXPECT_THROW(device.event_record(e, kDefaultStream), DeviceError);
}

TEST_F(DeviceFixture, StreamErrors) {
  EXPECT_THROW(device.stream_destroy(kDefaultStream), DeviceError);
  EXPECT_THROW(device.stream_destroy(999), DeviceError);
  EXPECT_THROW(device.stream_synchronize(999), DeviceError);
}

TEST_F(DeviceFixture, UnregisteredKernelFailsAtLaunch) {
  fatbin::CubinImage img = device_test_image();
  img.kernels[0].name = "not_registered_anywhere";
  const ModuleId mod = device.load_module(fatbin::cubin_serialize(img));
  const FuncId fn = device.get_function(mod, "not_registered_anywhere");
  const auto params = pack_saxpy_params(0, 0, 0, 0);
  EXPECT_THROW(device.launch(fn, Dim3{1}, Dim3{1}, 0, kDefaultStream, params),
               LaunchError);
}

TEST_F(DeviceFixture, ModuleGlobalIsInitialized) {
  fatbin::CubinImage img = device_test_image();
  img.globals[0].init = {0xAA, 0xBB, 0xCC, 0xDD};
  const ModuleId mod = device.load_module(fatbin::cubin_serialize(img));
  const DevPtr g = device.get_global(mod, "g_counter");
  std::vector<std::uint8_t> out(4);
  device.memcpy_d2h(out, g);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{0xAA, 0xBB, 0xCC, 0xDD}));
}

TEST_F(DeviceFixture, UnloadModuleFreesGlobals) {
  const auto before = device.memory().allocation_count();
  const ModuleId mod =
      device.load_module(fatbin::cubin_serialize(device_test_image()));
  EXPECT_EQ(device.memory().allocation_count(), before + 1);  // g_counter
  device.unload_module(mod);
  EXPECT_EQ(device.memory().allocation_count(), before);
}

TEST_F(DeviceFixture, RestoreMergeRefusesWrappingPlacementUntouched) {
  const DevPtr live = device.malloc(4096);
  const std::uint64_t used = device.memory().bytes_in_use();

  // A migration-image allocation record whose addr + size wraps past
  // UINT64_MAX: the validated placement check refuses it outright, and the
  // all-or-nothing contract means the device keeps exactly its prior state.
  DeviceSnapshot hostile;
  DeviceSnapshot::AllocationRecord rec;
  rec.addr = ~0ull - 64;
  rec.size = 4096;
  rec.bytes.assign(rec.size, 0xAB);
  hostile.allocations.push_back(rec);
  EXPECT_THROW(device.restore_merge(hostile), DeviceError);
  EXPECT_EQ(device.memory().bytes_in_use(), used);
  EXPECT_EQ(device.memory().allocation_count(), 1u);
  device.free(live);
}

TEST_F(DeviceFixture, SnapshotRestoreRoundTripsByteIdentically) {
  const ModuleId mod =
      device.load_module(fatbin::cubin_serialize(device_test_image()));
  (void)device.get_function(mod, "saxpy");
  const DevPtr written = device.malloc(3 * 4096 + 100);
  const DevPtr untouched = device.malloc(1 << 20);
  const DevPtr freed = device.malloc(8192);
  std::vector<std::uint8_t> pattern(3 * 4096 + 100);
  std::iota(pattern.begin(), pattern.end(), std::uint8_t{7});
  device.memcpy_h2d(written, pattern);
  device.memset(freed, 0xEE, 8192);
  device.free(freed);
  (void)untouched;

  const DeviceSnapshot snap = device.snapshot();
  sim::SimClock clock2;
  Device copy(a100_props(), clock2, registry, pool);
  copy.restore(snap);
  const DeviceSnapshot again = copy.snapshot();

  ASSERT_EQ(again.allocations.size(), snap.allocations.size());
  for (std::size_t i = 0; i < snap.allocations.size(); ++i) {
    EXPECT_EQ(again.allocations[i].addr, snap.allocations[i].addr);
    EXPECT_EQ(again.allocations[i].size, snap.allocations[i].size);
    EXPECT_EQ(again.allocations[i].bytes, snap.allocations[i].bytes);
  }
  EXPECT_EQ(again.next_id, snap.next_id);
  ASSERT_EQ(again.modules.size(), snap.modules.size());
  EXPECT_EQ(again.modules[0].image, snap.modules[0].image);
  EXPECT_EQ(again.modules[0].globals, snap.modules[0].globals);
  std::vector<std::uint8_t> out(pattern.size());
  copy.memcpy_d2h(out, written);
  EXPECT_EQ(out, pattern);
}

TEST_F(DeviceFixture, BiggerKernelsTakeLongerVirtualTime) {
  const ModuleId mod =
      device.load_module(fatbin::cubin_serialize(device_test_image()));
  const FuncId fn = device.get_function(mod, "saxpy");
  const DevPtr x = device.malloc((1u << 24) * 4);
  const DevPtr y = device.malloc((1u << 24) * 4);

  device.launch(fn, Dim3{1}, Dim3{256}, 0, kDefaultStream,
                pack_saxpy_params(y, x, 1.0f, 1u << 10));
  device.stream_synchronize(kDefaultStream);
  const auto small = clock.now();

  device.launch(fn, Dim3{1}, Dim3{256}, 0, kDefaultStream,
                pack_saxpy_params(y, x, 1.0f, 1u << 24));
  device.stream_synchronize(kDefaultStream);
  const auto big = clock.now() - small;
  EXPECT_GT(big, small);
}

TEST(DeviceProps, PresetsAreOrderedSensibly) {
  EXPECT_GT(a100_props().mem_bandwidth_gbps, t4_props().mem_bandwidth_gbps);
  EXPECT_GT(t4_props().sm_arch, p40_props().sm_arch);
  EXPECT_EQ(a100_props().sm_arch, 80u);
}

}  // namespace
}  // namespace cricket::gpusim
