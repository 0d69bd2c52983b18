// Cross-layer span tracing keyed by RPC xid.
//
// A remote CUDA call crosses six subsystems (cudart facade → cricket client
// → rpc client core → rpc transport/vnet → server dispatch → gpusim); this
// header gives each layer a one-line way to mark its slice of the call:
//
//   obs::Span span(obs::Layer::kVnetTx, nullptr, frame_bytes);
//
// Spans carry the current RPC xid (a thread-local set by ScopedXid at the
// points where a call enters a thread: client call sites and the pipelined
// server's worker loop), so a trace viewer can line up the client, wire, and
// server slices of one call. Completed spans land in per-thread lock-free
// ring buffers and export as Chrome trace_event JSON (chrome://tracing /
// ui.perfetto.dev loadable); each span also feeds a per-layer latency
// histogram in the global metrics Registry.
//
// Cost discipline: with tracing disabled (the default) a Span is one relaxed
// atomic load and a branch; compiled with CRICKET_OBS_DISABLE it is a true
// no-op the optimizer deletes. Enabled spans write one seqlock-protected ring
// slot — no locks, no allocation on the hot path. Spans never charge the
// SimClock, so virtual-time benchmark numbers are identical with tracing on
// or off.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/sim_clock.hpp"

namespace cricket::obs {

/// Where in the stack a span was recorded. One value per instrumented slice;
/// layer_name() is the default span name, layer_category() groups related
/// layers for trace-viewer filtering.
enum class Layer : std::uint8_t {
  kApp = 0,          // benchmark / application sections
  kClientCall,       // cricket client: whole remote API call
  kClientSerialize,  // cricket/rpc client: XDR-encode the call
  kClientWait,       // rpc client: wait for + decode the reply
  kChanSend,         // rpc client: send (or enqueue) a call record
  kChanFlush,        // rpc call batcher: flush coalesced records
  kChanReply,        // rpc client: reply matched to its future
  kNetTx,            // host-side shaped transport TX
  kNetRx,            // host-side shaped transport RX
  kVnetTx,           // virtio-net guest transport TX
  kVnetRx,           // virtio-net guest transport RX
  kServerDispatch,   // rpc server: decode + dispatch to the service proc
  kServerReply,      // rpc server: encode + send the reply
  kGpuLaunch,        // gpusim: kernel execution
  kGpuMemcpy,        // gpusim: H2D/D2H/D2D copies
  kGpuSync,          // gpusim: stream/device synchronization
  kCount
};

/// "vnet.tx", "server.dispatch", ... (stable identifiers used in traces,
/// metric labels, and the docs' span taxonomy).
[[nodiscard]] const char* layer_name(Layer layer) noexcept;
/// Coarse grouping for the Chrome trace `cat` field: "app", "client",
/// "chan", "net", "vnet", "server", "gpu".
[[nodiscard]] const char* layer_category(Layer layer) noexcept;

/// One completed span (or instant event, dur_ns == 0 and instant == true).
struct TraceEvent {
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint64_t arg = 0;      // layer-defined payload, usually bytes
  std::uint32_t xid = 0;      // RPC call id, 0 when outside any call
  std::uint32_t tid = 0;      // dense per-process thread id
  Layer layer = Layer::kApp;
  bool instant = false;
  const char* name = nullptr;  // static string, defaults to layer_name()
};

struct TraceOptions {
  /// Events retained per thread; older events are overwritten (dropped
  /// counter keeps score). Rounded up to a power of two.
  std::size_t ring_capacity = 64 * 1024;
  /// Also observe each span's duration into the global Registry histogram
  /// `cricket_span_latency_ns{layer=...}`.
  bool latency_metrics = true;
};

#if defined(CRICKET_OBS_DISABLE)

constexpr bool tracing_enabled() noexcept { return false; }
inline void enable_tracing(const TraceOptions& = {}) noexcept {}
inline void disable_tracing() noexcept {}
inline void reset_trace() noexcept {}
inline void bind_clock(const sim::SimClock*) noexcept {}
inline std::int64_t trace_now_ns() noexcept { return 0; }
inline std::uint32_t current_xid() noexcept { return 0; }
inline std::uint64_t events_recorded() noexcept { return 0; }
inline std::uint64_t events_dropped() noexcept { return 0; }
inline std::vector<TraceEvent> collect_events() { return {}; }
inline void instant(Layer, const char* = nullptr, std::uint64_t = 0) noexcept {
}

class ScopedXid {
 public:
  explicit ScopedXid(std::uint32_t) noexcept {}
};

class Span {
 public:
  explicit Span(Layer, const char* = nullptr, std::uint64_t = 0) noexcept {}
  void set_arg(std::uint64_t) noexcept {}
  void finish() noexcept {}
  void cancel() noexcept {}
};

#else  // tracing compiled in

namespace detail {
extern std::atomic<bool> g_enabled;
void record_span(Layer layer, const char* name, std::int64_t start_ns,
                 std::int64_t dur_ns, std::uint64_t arg, bool instant) noexcept;
extern thread_local std::uint32_t t_xid;
}  // namespace detail

/// Runtime switch, checked (relaxed) at every span construction.
inline bool tracing_enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Turns span recording on. Idempotent; options apply to rings created
/// after the call (each thread's ring is sized on first use).
void enable_tracing(const TraceOptions& options = {});
/// Stops recording; already-collected events stay readable.
void disable_tracing() noexcept;
/// Drops all recorded events and zeroes the recorded/dropped counters.
/// Existing threads transparently re-register on their next span.
void reset_trace();

/// Points the span timestamp source at a virtual clock (nullptr restores the
/// default steady_clock). Benches bind the experiment's SimClock so trace
/// timelines line up with the paper-style virtual-time numbers.
void bind_clock(const sim::SimClock* clock) noexcept;
/// Current trace timestamp (bound SimClock, else steady_clock ns since the
/// first call).
[[nodiscard]] std::int64_t trace_now_ns() noexcept;

/// The RPC xid attributed to spans on this thread (0 = outside any call).
[[nodiscard]] inline std::uint32_t current_xid() noexcept {
  return detail::t_xid;
}

/// Sets the thread's current xid for a scope; restores the previous value on
/// exit. Client call sites wrap the whole call; the server's serve loop
/// wraps each dispatched call and its reply.
class ScopedXid {
 public:
  explicit ScopedXid(std::uint32_t xid) noexcept : prev_(detail::t_xid) {
    detail::t_xid = xid;
  }
  ~ScopedXid() { detail::t_xid = prev_; }
  ScopedXid(const ScopedXid&) = delete;
  ScopedXid& operator=(const ScopedXid&) = delete;

 private:
  std::uint32_t prev_;
};

/// RAII span: captures the start timestamp at construction, records on
/// finish()/destruction. Cheap to construct when tracing is off.
class Span {
 public:
  explicit Span(Layer layer, const char* name = nullptr,
                std::uint64_t arg = 0) noexcept
      : layer_(layer), name_(name), arg_(arg), active_(tracing_enabled()) {
    if (active_) start_ns_ = trace_now_ns();
  }
  ~Span() { finish(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches/overwrites the payload (e.g. byte count known only after the
  /// transfer).
  void set_arg(std::uint64_t arg) noexcept { arg_ = arg; }

  /// Drops the span without recording (e.g. a blocking recv that returned
  /// nothing).
  void cancel() noexcept { active_ = false; }

  /// Records the span now instead of at scope exit. Idempotent.
  void finish() noexcept {
    if (!active_) return;
    active_ = false;
    detail::record_span(layer_, name_, start_ns_,
                        trace_now_ns() - start_ns_, arg_, false);
  }

 private:
  std::int64_t start_ns_ = 0;
  Layer layer_;
  const char* name_;
  std::uint64_t arg_;
  bool active_;
};

/// Zero-duration marker event (reply matched, flush triggered, ...).
inline void instant(Layer layer, const char* name = nullptr,
                    std::uint64_t arg = 0) noexcept {
  if (!tracing_enabled()) return;
  detail::record_span(layer, name, trace_now_ns(), 0, arg, true);
}

/// Spans recorded since the last reset, across all threads, sorted by start
/// time. Safe to call while other threads keep recording (seqlock readers
/// skip slots mid-write).
[[nodiscard]] std::vector<TraceEvent> collect_events();
/// Total spans recorded / overwritten-before-collection since last reset.
[[nodiscard]] std::uint64_t events_recorded() noexcept;
[[nodiscard]] std::uint64_t events_dropped() noexcept;

#endif  // CRICKET_OBS_DISABLE

/// Chrome trace_event JSON ("[{name,cat,ph:"X",ts,dur,pid,tid,args},...]"
/// wrapped in {"traceEvents": ...}) for the given events.
[[nodiscard]] std::string chrome_trace_json(
    const std::vector<TraceEvent>& events);
/// collect_events() + chrome_trace_json() + write to `path`. Returns false
/// (and leaves no partial file contract) if the file cannot be written.
bool write_chrome_trace(const std::string& path);

/// RAII capture driven by environment variables: CRICKET_TRACE=<path> turns
/// tracing on and writes a Chrome trace there at scope exit;
/// CRICKET_METRICS=<path> writes the global registry's Prometheus text dump.
/// Benches construct one at the top of main().
class TraceSession {
 public:
  /// Reads CRICKET_TRACE / CRICKET_METRICS; inactive if neither is set.
  static TraceSession from_env();
  /// Explicit paths (empty = skip that artifact). Enables tracing when
  /// `trace_path` is non-empty.
  TraceSession(std::string trace_path, std::string metrics_path,
               TraceOptions options = {});
  TraceSession() = default;  // inactive
  ~TraceSession();
  TraceSession(TraceSession&& other) noexcept;
  TraceSession& operator=(TraceSession&&) = delete;
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  [[nodiscard]] bool active() const noexcept {
    return !trace_path_.empty() || !metrics_path_.empty();
  }
  [[nodiscard]] const std::string& trace_path() const noexcept {
    return trace_path_;
  }

  /// Writes the artifacts now (and disables tracing); the destructor becomes
  /// a no-op. Returns false if any write failed.
  bool flush();

 private:
  std::string trace_path_;
  std::string metrics_path_;
  bool flushed_ = false;
};

}  // namespace cricket::obs
