// Shared harness plumbing for the reproduction benches.
//
// Each figure bench builds a "rig" per Table 1 row: a simulated GPU node
// running a Cricket server, connected to a client through that row's
// network path (virtio-net for virtualized rows), with the row's client
// flavour. All numbers reported are *virtual time* from the shared SimClock
// (see DESIGN.md §2 on the simulation substitution).
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cricket/client.hpp"
#include "cricket/server.hpp"
#include "cudart/local_api.hpp"
#include "env/environment.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/stats.hpp"
#include "workloads/kernels.hpp"

namespace cricket::bench {

/// A complete client<->server stack for one environment.
class Rig {
 public:
  explicit Rig(env::Environment environment,
               core::ServerOptions server_options = {})
      : environment_(std::move(environment)),
        node_(cuda::GpuNode::make_a100()) {
    workloads::register_sample_kernels(node_->registry());
    // Tracing: `with_tracing` presets switch the collector on; whenever it
    // is on (also via CRICKET_TRACE/TraceSession) the span time source is
    // bound to this rig's SimClock so trace timelines read in virtual time.
    if (environment_.tracing) obs::enable_tracing();
    if (obs::tracing_enabled()) {
      obs::bind_clock(&node_->clock());
      bound_clock_ = true;
    }
    // with_module_cache presets switch on both halves of the negotiation:
    // the server-side content-addressed cache and the client's hash-first
    // load path.
    if (environment_.module_cache) server_options.module_cache = true;
    // with_pipelining presets pair the pipelined client with the server's
    // pipelined loop, which runs each session's calls in order.
    if (environment_.pipeline.enabled) server_options.serve.workers = 1;
    server_ = std::make_unique<core::CricketServer>(*node_, server_options);
    auto conn = env::connect(environment_, node_->clock());
    server_thread_ = server_->serve_async(std::move(conn.server));
    core::ClientConfig client_config{.flavor = environment_.flavor,
                                     .profile = environment_.profile,
                                     .pipeline = environment_.pipeline};
    client_config.module_cache = environment_.module_cache;
    api_ = std::make_unique<core::RemoteCudaApi>(
        std::move(conn.guest), node_->clock(), std::move(client_config));
  }

  ~Rig() {
    api_.reset();  // closes the connection; the server session ends
    if (server_thread_.joinable()) server_thread_.join();
    if (bound_clock_) obs::bind_clock(nullptr);  // clock dies with the rig
  }

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  [[nodiscard]] core::RemoteCudaApi& api() { return *api_; }
  [[nodiscard]] cuda::GpuNode& node() { return *node_; }
  [[nodiscard]] sim::SimClock& clock() { return node_->clock(); }
  [[nodiscard]] const env::Environment& environment() const {
    return environment_;
  }
  /// Timing-only mode on the device: kernels charge cost but skip math —
  /// used for the paper-scale iteration counts after a verified warmup.
  void set_timing_only(bool value) { node_->device(0).set_timing_only(value); }

 private:
  env::Environment environment_;
  std::unique_ptr<cuda::GpuNode> node_;
  std::unique_ptr<core::CricketServer> server_;
  std::thread server_thread_;
  std::unique_ptr<core::RemoteCudaApi> api_;
  bool bound_clock_ = false;
};

inline void print_header(const char* title, const char* paper_note) {
  std::printf("\n=== %s ===\n", title);
  std::printf("paper: %s\n", paper_note);
  std::printf("%-10s %14s %14s %10s\n", "config", "total", "per-unit",
              "vs native");
}

/// Simple "--flag=value" argument lookup.
inline std::string arg_value(int argc, char** argv, const std::string& name,
                             const std::string& fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return fallback;
}

inline bool has_flag(int argc, char** argv, const std::string& name) {
  const std::string flag = "--" + name;
  for (int i = 1; i < argc; ++i)
    if (flag == argv[i]) return true;
  return false;
}

// ---------------------------------------------------------------------------
// Machine-readable results (--json=<path>)
// ---------------------------------------------------------------------------

/// One measured configuration of one bench section, in nanoseconds of
/// virtual time. Quantiles come from a per-call Log2Histogram, so p50/p95/
/// p99 are bucket-upper-edge estimates (factor-of-two resolution).
struct BenchRow {
  std::string bench;    // e.g. "fig6_micro"
  std::string section;  // e.g. "kernel_launch"
  std::string config;   // Table 1 row name
  std::uint64_t count = 0;
  double total_ns = 0;
  double mean_ns = 0;
  double p50_ns = 0;
  double p95_ns = 0;
  double p99_ns = 0;
  double bytes_per_sec = 0;  // 0 for non-bandwidth sections
};

/// Builds a row from a per-call latency histogram plus the section's total
/// virtual time. `bytes_moved` (optional) yields bytes_per_sec over total.
inline BenchRow make_row(std::string bench, std::string section,
                         std::string config,
                         const sim::Log2Histogram& per_call_ns,
                         double total_ns, std::uint64_t bytes_moved = 0) {
  BenchRow row;
  row.bench = std::move(bench);
  row.section = std::move(section);
  row.config = std::move(config);
  row.count = per_call_ns.total();
  row.total_ns = total_ns;
  row.mean_ns = row.count ? total_ns / static_cast<double>(row.count) : 0.0;
  row.p50_ns = static_cast<double>(per_call_ns.quantile(0.50));
  row.p95_ns = static_cast<double>(per_call_ns.quantile(0.95));
  row.p99_ns = static_cast<double>(per_call_ns.quantile(0.99));
  if (bytes_moved > 0 && total_ns > 0)
    row.bytes_per_sec = static_cast<double>(bytes_moved) / (total_ns / 1e9);
  return row;
}

/// Writes rows as a JSON array (one object per row). Returns false when the
/// file cannot be opened; an empty path is a silent no-op returning true.
inline bool write_bench_json(const std::string& path,
                             const std::vector<BenchRow>& rows) {
  if (path.empty()) return true;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return false;
  }
  out << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "  {\"bench\": \"%s\", \"section\": \"%s\", "
                  "\"config\": \"%s\", \"count\": %llu, "
                  "\"total_ns\": %.1f, \"mean_ns\": %.1f, "
                  "\"p50_ns\": %.1f, \"p95_ns\": %.1f, \"p99_ns\": %.1f, "
                  "\"bytes_per_sec\": %.1f}%s\n",
                  r.bench.c_str(), r.section.c_str(), r.config.c_str(),
                  static_cast<unsigned long long>(r.count), r.total_ns,
                  r.mean_ns, r.p50_ns, r.p95_ns, r.p99_ns, r.bytes_per_sec,
                  i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Per-layer latency breakdown (from the obs registry)
// ---------------------------------------------------------------------------

/// Prints a Table-1-style where-does-the-time-go breakdown from the
/// `cricket_span_latency_ns{layer=...}` histograms the span collector feeds.
/// Silent when tracing was off (no series have samples). Call
/// `obs::Registry::global().reset()` between configurations to scope the
/// breakdown to one run.
inline void print_layer_breakdown(const char* title = "per-layer latency") {
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  bool printed_header = false;
  for (const auto& [series, hist] : snap.histograms) {
    if (series.rfind("cricket_span_latency_ns", 0) != 0) continue;
    if (hist.hist.total() == 0) continue;
    const auto key_pos = series.find("layer=\"");
    std::string layer = series;
    if (key_pos != std::string::npos) {
      const auto start = key_pos + 7;
      layer = series.substr(start, series.find('"', start) - start);
    }
    if (!printed_header) {
      std::printf("\n--- %s (virtual ns per span) ---\n", title);
      std::printf("%-18s %10s %12s %12s %12s %12s\n", "layer", "count",
                  "mean", "p50", "p95", "p99");
      printed_header = true;
    }
    const double count = static_cast<double>(hist.hist.total());
    std::printf("%-18s %10llu %12.0f %12llu %12llu %12llu\n", layer.c_str(),
                static_cast<unsigned long long>(hist.hist.total()),
                static_cast<double>(hist.sum) / count,
                static_cast<unsigned long long>(hist.hist.quantile(0.50)),
                static_cast<unsigned long long>(hist.hist.quantile(0.95)),
                static_cast<unsigned long long>(hist.hist.quantile(0.99)));
  }
}

}  // namespace cricket::bench
