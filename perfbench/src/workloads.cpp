#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>

#include "cudart/raii.hpp"
#include "obs/metrics.hpp"
#include "workloads/kernels.hpp"

namespace perfbench {
namespace {

using namespace cricket;

constexpr std::size_t kKiB = 1024;
constexpr std::size_t kMiB = 1024 * kKiB;
/// vectorAdd parameter blob: three device pointers and an element count.
constexpr std::size_t kLaunchParamBytes = 28;
constexpr std::uint32_t kVectorElems = 256;
constexpr int kBurstLaunches = 63;

const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> all = {
      {"calls-hermit", env::EnvKind::kRustyHermit, false, {kLaunchParamBytes}},
      {"bulk-hermit", env::EnvKind::kRustyHermit, false,
       {64 * kKiB, kMiB, 4 * kMiB}},
      {"pipeline-native", env::EnvKind::kNativeRust, true,
       {kLaunchParamBytes}},
  };
  return all;
}

// ---------------------------------------------------------------------------
// Virtual-clock pins
// ---------------------------------------------------------------------------

/// Virtual ns each operation charges at the reference commit, under the
/// benchmark's two-CPU SCHED_BATCH placement. Serial small calls are
/// deterministic and must match exactly. Bulk copies and pipelined bursts
/// depend on thread timing (VirtioNetTransport::recv and
/// ShapedTransport::recv charge rx_cpu_cost per recv() chunk): their mean per
/// run must stay within a relative tolerance of the median run mean. The
/// tolerances are several times the spread of run means seen across seeds:
/// up to 0.16% for H2D copies, under 0.001% for D2H copies, and 4% for
/// bursts, whose virtual time grows as the host slows the caller down.
struct Pin {
  const char* workload;
  const char* op;
  std::int64_t ns;
  double tolerance;
};

constexpr Pin kPins[] = {
    {"calls-hermit", "getDeviceCount", 95'008, 0},
    {"calls-hermit", "malloc", 96'909, 0},
    {"calls-hermit", "free", 96'908, 0},
    {"calls-hermit", "launch", 98'419, 0},
    {"bulk-hermit", "h2d_64KiB", 220'776, 0.01},
    {"bulk-hermit", "h2d_1MiB", 2'234'358, 0.01},
    {"bulk-hermit", "h2d_4MiB", 8'679'053, 0.01},
    {"bulk-hermit", "d2h_64KiB", 220'770, 0.01},
    {"bulk-hermit", "d2h_1MiB", 2'224'963, 0.01},
    {"bulk-hermit", "d2h_4MiB", 8'613'051, 0.01},
    {"pipeline-native", "burst", 395'819, 0.10},
};

const Pin* find_pin(const std::string& workload, const std::string& op) {
  for (const Pin& pin : kPins)
    if (workload == pin.workload && op == pin.op) return &pin;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Recorder: times calls, apportions wire bytes, counts checked operations
// ---------------------------------------------------------------------------

enum class Kind { kOther, kLaunch, kSync };

class Recorder {
 public:
  Recorder(const std::string& workload, PhaseResult& result)
      : workload_(workload), result_(&result) {}

  void attach(Stack& stack) { stack_ = &stack; }

  void start_recording() {
    recording_ = true;
    open_window();
  }
  void stop_recording() { recording_ = false; }

  struct Call {
    cuda::Error err;
    double us;
    sim::Nanos virt;
  };

  template <typename Fn>
  Call call(Kind kind, Fn&& fn) {
    const GuestTap& tap = stack_->guest();
    const std::uint64_t tx0 = tap.tx_bytes();
    const std::uint64_t rx0 = tap.rx_bytes();
    const sim::Nanos v0 = stack_->clock().now();
    const std::int64_t t0 = now_ns();
    const cuda::Error err = fn();
    const std::int64_t t1 = now_ns();
    const sim::Nanos v1 = stack_->clock().now();
    const double us = static_cast<double>(t1 - t0) * 1e-3;
    if (recording_) record(kind, us, tap.tx_bytes() - tx0, tap.rx_bytes() - rx0);
    return {err, us, v1 - v0};
  }

  /// Counts one forwarded call as one operation. It fails on a CUDA error,
  /// on a wrong result, or when its virtual time misses an exact pin.
  /// `virt_op` names the virtual-time sample the call closes, if any.
  void check_call(const char* op, cuda::Error err, bool result_ok,
                  const std::string& virt_op = {}, sim::Nanos virt_ns = 0) {
    const bool virt_ok = virt_op.empty() || sample_virtual(virt_op, virt_ns);
    ++result_->attempted;
    if (err != cuda::Error::kSuccess) {
      fail(std::string(op) + ": " + cuda::error_name(err));
    } else if (!result_ok) {
      fail(std::string(op) + ": wrong result");
    } else if (!virt_ok) {
      fail(std::string(op) + ": virtual time " + std::to_string(virt_ns) +
           " ns differs from the pinned value");
    }
  }

  /// One attempted operation; `ok` false counts it as failed.
  void check(bool ok, const std::string& what) {
    ++result_->attempted;
    if (!ok) fail(what);
  }

  /// End of phase: each op with a tolerance pin is one more operation,
  /// failed when its mean misses the pin by more than the tolerance; an op
  /// with no pin at all fails too.
  void check_virtual_means() {
    for (auto& [op, stat] : result_->virtual_ns) {
      const Pin* pin = find_pin(workload_, op);
      if (pin != nullptr && pin->tolerance == 0) continue;  // per sample
      const double mean = stat.sum_ns / static_cast<double>(stat.count);
      const bool ok =
          pin != nullptr && std::abs(mean - static_cast<double>(pin->ns)) <=
                                pin->tolerance * static_cast<double>(pin->ns);
      if (!ok) ++stat.mismatches;
      check(ok, op + ": mean virtual time " + std::to_string(mean) +
                    " ns is off its pin");
    }
  }

  /// Closes a repeat unit; closes the window once it spans kWindowSeconds.
  void unit_done(double us) {
    if (!recording_) return;
    result_->unit_us.push_back(us);
    const double elapsed = static_cast<double>(now_ns() - win_t0_) * 1e-9;
    if (elapsed < kWindowSeconds) return;
    const auto calls = static_cast<double>(result_->call_us.size() - win_calls0_);
    const double cpu = process_cpu_s() - win_cpu0_;
    const GuestTap& tap = stack_->guest();
    const auto wire = static_cast<double>(tap.tx_bytes() + tap.rx_bytes() -
                                          win_wire0_);
    constexpr double kMiBf = 1024.0 * 1024.0;
    result_->windows.push_back(
        {safe_div(calls, elapsed),
         safe_div((result_->h2d_bytes - win_h2d_bytes0_) / kMiBf,
                  result_->h2d_s - win_h2d_s0_),
         safe_div((result_->d2h_bytes - win_d2h_bytes0_) / kMiBf,
                  result_->d2h_s - win_d2h_s0_),
         safe_div(cpu * 1e6, calls), safe_div(cpu, wire / (kMiBf * 1024.0))});
    open_window();
  }

  void add_payload(std::uint64_t bytes) {
    if (recording_) result_->payload_bytes += bytes;
  }

 private:
  void open_window() {
    const GuestTap& tap = stack_->guest();
    win_t0_ = now_ns();
    win_cpu0_ = process_cpu_s();
    win_calls0_ = result_->call_us.size();
    win_wire0_ = tap.tx_bytes() + tap.rx_bytes();
    win_h2d_bytes0_ = result_->h2d_bytes;
    win_h2d_s0_ = result_->h2d_s;
    win_d2h_bytes0_ = result_->d2h_bytes;
    win_d2h_s0_ = result_->d2h_s;
  }

  void fail(const std::string& what) {
    if (++result_->failed <= 5)
      std::fprintf(stderr, "perfbench: %s: operation failed: %s\n",
                   workload_.c_str(), what.c_str());
  }

  /// Records a virtual-time sample; false only when it misses an exact pin.
  bool sample_virtual(const std::string& op, sim::Nanos ns) {
    VirtualStat& stat = result_->virtual_ns[op];
    const Pin* pin = find_pin(workload_, op);
    if (stat.count == 0) {
      stat.min_ns = stat.max_ns = ns;
      stat.pinned_ns = pin ? pin->ns : 0;
      stat.tolerance = pin ? pin->tolerance : 0;
    }
    ++stat.count;
    stat.min_ns = std::min(stat.min_ns, ns);
    stat.max_ns = std::max(stat.max_ns, ns);
    stat.sum_ns += static_cast<double>(ns);
    if (pin == nullptr || pin->tolerance > 0) return true;
    if (ns == pin->ns) return true;
    ++stat.mismatches;
    return false;
  }

  void record(Kind kind, double us, std::uint64_t tx, std::uint64_t rx) {
    result_->call_us.push_back(us);
    if (kind == Kind::kLaunch) {
      result_->launch_us_sum += us;
      ++result_->launches;
    } else if (kind == Kind::kSync) {
      result_->sync_us_sum += us;
      ++result_->syncs;
    }
    const double moved = static_cast<double>(tx + rx);
    if (moved == 0) return;
    const double share_tx = static_cast<double>(tx) / moved;
    const double s = us * 1e-6;
    result_->h2d_bytes += static_cast<double>(tx);
    result_->d2h_bytes += static_cast<double>(rx);
    result_->h2d_s += s * share_tx;
    result_->d2h_s += s * (1.0 - share_tx);
  }

  std::string workload_;
  PhaseResult* result_;
  Stack* stack_ = nullptr;
  bool recording_ = false;
  std::int64_t win_t0_ = 0;
  double win_cpu0_ = 0;
  std::size_t win_calls0_ = 0;
  std::uint64_t win_wire0_ = 0;
  double win_h2d_bytes0_ = 0, win_h2d_s0_ = 0;
  double win_d2h_bytes0_ = 0, win_d2h_s0_ = 0;
};

// ---------------------------------------------------------------------------
// Loads
// ---------------------------------------------------------------------------

class Load {
 public:
  virtual ~Load() = default;
  /// Module load or buffer allocation: the last set-up step.
  virtual void prepare(cuda::CudaApi& api, Recorder& rec) = 0;
  /// Untimed correctness check on a fresh stack, before warm-up.
  virtual void verify(Stack& /*stack*/, Recorder& /*rec*/) {}
  /// One repeat unit of the mix.
  virtual void unit(Stack& stack, Recorder& rec) = 0;
};

/// Shared by the launch workloads: the sample module, vectorAdd and its
/// three 1 KiB operands; verify() runs one real vectorAdd and checks it.
class KernelLoad : public Load {
 public:
  explicit KernelLoad(std::mt19937_64& rng) : rng_(&rng) {
    a_.resize(kVectorElems);
    b_.resize(kVectorElems);
    for (std::uint32_t i = 0; i < kVectorElems; ++i) {
      a_[i] = static_cast<float>(rng() % 100000) / 64.0f;
      b_[i] = static_cast<float>(rng() % 100000) / 64.0f;
    }
  }

  void prepare(cuda::CudaApi& api, Recorder& rec) override {
    const auto image = workloads::sample_cubin();
    rec.check(api.module_load(module_, image) == cuda::Error::kSuccess,
              "module_load");
    rec.check(api.module_get_function(fn_, module_,
                                      workloads::kVectorAddKernel) ==
                  cuda::Error::kSuccess,
              "module_get_function");
    for (cuda::DevPtr* p : {&a_dev_, &b_dev_, &c_dev_})
      rec.check(api.malloc(*p, kVectorElems * sizeof(float)) ==
                    cuda::Error::kSuccess,
                "malloc operand");
    params_ = cuda::ParamPacker{};
    params_.add_ptr(c_dev_).add_ptr(a_dev_).add_ptr(b_dev_).add(kVectorElems);
  }

  void verify(Stack& stack, Recorder& rec) override {
    cuda::CudaApi& api = stack.api();
    const auto bytes = [](const std::vector<float>& v) {
      return std::span(reinterpret_cast<const std::uint8_t*>(v.data()),
                       v.size() * sizeof(float));
    };
    rec.check(api.memcpy_h2d(a_dev_, bytes(a_)) == cuda::Error::kSuccess,
              "verify: memcpy a");
    rec.check(api.memcpy_h2d(b_dev_, bytes(b_)) == cuda::Error::kSuccess,
              "verify: memcpy b");
    rec.check(launch(api) == cuda::Error::kSuccess, "verify: launch");
    rec.check(api.device_synchronize() == cuda::Error::kSuccess,
              "verify: synchronize");
    std::vector<float> c(kVectorElems, -1.0f);
    rec.check(api.memcpy_d2h(std::span(reinterpret_cast<std::uint8_t*>(
                                           c.data()),
                                       c.size() * sizeof(float)),
                             c_dev_) == cuda::Error::kSuccess,
              "verify: memcpy c");
    bool equal = true;
    for (std::uint32_t i = 0; i < kVectorElems; ++i)
      equal = equal && c[i] == a_[i] + b_[i];
    rec.check(equal, "verify: vectorAdd result differs from host sum");
    // The timed launches charge cost but skip the arithmetic.
    stack.node().device(0).set_timing_only(true);
  }

 protected:
  cuda::Error launch(cuda::CudaApi& api) {
    return api.launch_kernel(fn_, {1, 1, 1}, {kVectorElems, 1, 1}, 0,
                             gpusim::kDefaultStream, params_.bytes());
  }

  std::mt19937_64* rng_;

 private:
  std::vector<float> a_, b_;
  cuda::ModuleId module_ = 0;
  cuda::FuncId fn_ = 0;
  cuda::DevPtr a_dev_ = 0, b_dev_ = 0, c_dev_ = 0;
  cuda::ParamPacker params_;
};

/// calls-hermit: a seeded order of getDeviceCount, malloc(1 MiB)+free and a
/// vectorAdd launch per round; every call's virtual time is pinned exactly.
class CallsLoad final : public KernelLoad {
 public:
  using KernelLoad::KernelLoad;

  void unit(Stack& stack, Recorder& rec) override {
    cuda::CudaApi& api = stack.api();
    std::array<int, 3> order = {0, 1, 2};
    std::shuffle(order.begin(), order.end(), *rng_);
    double round_us = 0;
    for (const int op : order) {
      if (op == 0) {
        int count = 0;
        const auto c =
            rec.call(Kind::kOther, [&] { return api.get_device_count(count); });
        rec.check_call("getDeviceCount", c.err, count == 1, "getDeviceCount",
                       c.virt);
        round_us += c.us;
      } else if (op == 1) {
        cuda::DevPtr p = 0;
        const auto m =
            rec.call(Kind::kOther, [&] { return api.malloc(p, kMiB); });
        rec.check_call("malloc", m.err, p != 0, "malloc", m.virt);
        const auto f = rec.call(Kind::kOther, [&] { return api.free(p); });
        rec.check_call("free", f.err, true, "free", f.virt);
        round_us += m.us + f.us;
      } else {
        const auto l = rec.call(Kind::kLaunch, [&] { return launch(api); });
        rec.check_call("launch", l.err, true, "launch", l.virt);
        round_us += l.us;
      }
    }
    rec.unit_done(round_us);
  }
};

/// pipeline-native: bursts of 63 fire-and-forget launches, then
/// device_synchronize; the burst's virtual time is checked with tolerance.
class PipelineLoad final : public KernelLoad {
 public:
  using KernelLoad::KernelLoad;

  void unit(Stack& stack, Recorder& rec) override {
    cuda::CudaApi& api = stack.api();
    double burst_us = 0;
    const sim::Nanos v0 = stack.clock().now();
    for (int i = 0; i < kBurstLaunches; ++i) {
      const auto l = rec.call(Kind::kLaunch, [&] { return launch(api); });
      rec.check_call("launch", l.err, true);
      burst_us += l.us;
    }
    const auto s =
        rec.call(Kind::kSync, [&] { return api.device_synchronize(); });
    burst_us += s.us;
    rec.check_call("device_synchronize", s.err, true, "burst",
                   stack.clock().now() - v0);
    rec.unit_done(burst_us);
  }
};

/// bulk-hermit: bandwidthTest-style H2D then D2H copies cycling through
/// 64 KiB, 1 MiB and 4 MiB buffers; every D2H result is compared byte for
/// byte with the seeded H2D source. 4 MiB is the wire queue's capacity, so
/// the largest record still fills it and splits into 1 MiB fragments; 16
/// MiB copies made run-to-run spread 2-3x worse (their working set
/// contends for the shared last-level cache).
class BulkLoad final : public Load {
 public:
  explicit BulkLoad(std::mt19937_64& rng) : rng_(&rng) {
    for (std::size_t i = 0; i < kSizes.size(); ++i) {
      for (auto& pattern : patterns_[i]) {
        pattern.resize(kSizes[i]);
        for (std::size_t off = 0; off < pattern.size(); off += 8) {
          const std::uint64_t word = rng();
          std::memcpy(pattern.data() + off, &word,
                      std::min<std::size_t>(8, pattern.size() - off));
        }
      }
      sinks_[i].resize(kSizes[i]);
    }
  }

  void prepare(cuda::CudaApi& api, Recorder& rec) override {
    for (std::size_t i = 0; i < kSizes.size(); ++i)
      rec.check(api.malloc(dev_[i], kSizes[i]) == cuda::Error::kSuccess,
                "malloc buffer");
  }

  /// One cycle: every size once, in a seeded order, H2D then D2H each.
  void unit(Stack& stack, Recorder& rec) override {
    std::array<std::size_t, 3> order = {0, 1, 2};
    std::shuffle(order.begin(), order.end(), *rng_);
    double cycle_us = 0;
    for (const std::size_t i : order) cycle_us += copy_pair(stack.api(), rec, i);
    rec.unit_done(cycle_us);
  }

 private:
  double copy_pair(cuda::CudaApi& api, Recorder& rec, std::size_t i) {
    const std::vector<std::uint8_t>& src = patterns_[i][flip_[i]];
    flip_[i] ^= 1;  // alternate patterns so a stale buffer cannot pass
    std::vector<std::uint8_t>& dst = sinks_[i];
    std::fill(dst.begin(), dst.end(), std::uint8_t{0});

    const std::string tag = size_tag(kSizes[i]);
    const auto up =
        rec.call(Kind::kOther, [&] { return api.memcpy_h2d(dev_[i], src); });
    rec.check_call("memcpy_h2d", up.err, true, "h2d_" + tag, up.virt);
    const auto down =
        rec.call(Kind::kOther, [&] { return api.memcpy_d2h(dst, dev_[i]); });
    rec.check_call("memcpy_d2h", down.err,
                   std::memcmp(dst.data(), src.data(), src.size()) == 0,
                   "d2h_" + tag, down.virt);
    rec.add_payload(2 * src.size());
    return up.us + down.us;
  }

  static std::string size_tag(std::size_t size) {
    return size >= kMiB ? std::to_string(size / kMiB) + "MiB"
                        : std::to_string(size / kKiB) + "KiB";
  }

  static constexpr std::array<std::size_t, 3> kSizes = {64 * kKiB, kMiB,
                                                        4 * kMiB};
  std::mt19937_64* rng_;
  std::array<std::array<std::vector<std::uint8_t>, 2>, 3> patterns_;
  std::array<std::vector<std::uint8_t>, 3> sinks_;
  std::array<cuda::DevPtr, 3> dev_{};
  std::array<int, 3> flip_{};
};

std::unique_ptr<Load> make_load(const WorkloadSpec& spec,
                                std::mt19937_64& rng) {
  if (spec.name == "bulk-hermit") return std::make_unique<BulkLoad>(rng);
  if (spec.pipelined) return std::make_unique<PipelineLoad>(rng);
  return std::make_unique<CallsLoad>(rng);
}

// ---------------------------------------------------------------------------
// Program counters read from outside
// ---------------------------------------------------------------------------

std::uint64_t sum_series(const obs::Snapshot& snap, const std::string& name,
                         const std::string& must_contain = "") {
  std::uint64_t total = 0;
  for (auto it = snap.counters.lower_bound(name);
       it != snap.counters.end() && it->first.rfind(name, 0) == 0; ++it) {
    const bool whole_name = it->first.size() == name.size() ||
                            it->first[name.size()] == '{';
    if (whole_name && it->first.find(must_contain) != std::string::npos)
      total += it->second;
  }
  return total;
}

LayerCounters read_counters(const Stack& stack) {
  LayerCounters c;
  if (const auto* v = stack.virtio()) {
    const vnet::TransportStats s = v->stats();
    c.frames = s.frames_tx + s.frames_rx;
    c.sw_checksums = s.checksums_computed;
    c.tx_kicks = v->tx_kicks();
    c.rx_interrupts = v->rx_interrupts();
  }
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  c.server_rpcs = sum_series(snap, "cricket_server_rpcs_total");
  c.gpu_copy_bytes = sum_series(snap, "cricket_gpu_copy_bytes_total",
                                "dir=\"h2d\"") +
                     sum_series(snap, "cricket_gpu_copy_bytes_total",
                                "dir=\"d2h\"");
  c.async_api_calls =
      sum_series(snap, "cricket_client_api_calls_total", "mode=\"pipelined\"") +
      sum_series(snap, "cricket_client_api_calls_total", "mode=\"blocking\"");
  c.batch_flushes = sum_series(snap, "cricket_batch_flushes_total");
  c.unflushed_waits = sum_series(snap, "cricket_batch_unflushed_waits_total");
  return c;
}

LayerCounters minus(const LayerCounters& a, const LayerCounters& b) {
  return {a.frames - b.frames,
          a.tx_kicks - b.tx_kicks,
          a.rx_interrupts - b.rx_interrupts,
          a.sw_checksums - b.sw_checksums,
          a.server_rpcs - b.server_rpcs,
          a.gpu_copy_bytes - b.gpu_copy_bytes,
          a.async_api_calls - b.async_api_calls,
          a.batch_flushes - b.batch_flushes,
          a.unflushed_waits - b.unflushed_waits};
}

GuestTap::Totals minus(const GuestTap::Totals& a, const GuestTap::Totals& b) {
  return {a.sends - b.sends,       a.recvs - b.recvs,
          a.tx_bytes - b.tx_bytes, a.rx_bytes - b.rx_bytes,
          a.send_ns - b.send_ns,   a.recv_ns - b.recv_ns};
}

ServerTap::Totals minus(const ServerTap::Totals& a,
                        const ServerTap::Totals& b) {
  return {a.sends - b.sends, a.replies - b.replies, a.send_ns - b.send_ns,
          a.idle_ns - b.idle_ns, a.busy_ns - b.busy_ns};
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& spec : specs())
    if (spec.name == name) return &spec;
  return nullptr;
}

PhaseResult run_phase(const PhaseOptions& options) {
  const WorkloadSpec& spec = *options.spec;
  PhaseResult result;
  std::mt19937_64 rng(options.seed);
  const auto load = make_load(spec, rng);
  Recorder rec(spec.name, result);

  const StackConfig config{.environment = env::make_environment(spec.env),
                           .pipelined = spec.pipelined,
                           .traced = options.traced};
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < options.setups; ++i) {
    stack.reset();  // tear the previous set-up down outside the timing
    SetupTimes times;
    run_on(options.placement.stack_cpu);
    stack = std::make_unique<Stack>(config, times);
    run_on(options.placement.caller_cpu);
    rec.attach(*stack);
    const std::int64_t t0 = now_ns();
    load->prepare(stack->api(), rec);
    times.load_s = static_cast<double>(now_ns() - t0) * 1e-9;
    result.setups.push_back(times);
  }
  load->verify(*stack, rec);

  // Warm-up: caches fill and lazy set-up finishes before timing.
  const double warmup_s = std::min(0.5, options.seconds * 0.1);
  const std::int64_t warm_end =
      now_ns() + static_cast<std::int64_t>(warmup_s * 1e9);
  while (now_ns() < warm_end) load->unit(*stack, rec);

  const GuestTap::Totals guest0 = stack->guest().totals();
  const ServerTap::Totals server0 =
      stack->server() ? stack->server()->totals() : ServerTap::Totals{};
  const LayerCounters counters0 = read_counters(*stack);
  rec.start_recording();
  const std::int64_t end =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  while (now_ns() < end) load->unit(*stack, rec);
  rec.stop_recording();
  rec.check_virtual_means();
  result.guest = minus(stack->guest().totals(), guest0);
  if (stack->server()) result.server = minus(stack->server()->totals(), server0);
  result.counters = minus(read_counters(*stack), counters0);
  return result;
}

}  // namespace perfbench
