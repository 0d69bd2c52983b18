// perfbench: real-time cost of the Cricket stack, end to end and per layer.
//
//   perfbench --workload <calls-hermit|bulk-hermit|pipeline-native>
//             --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with nothing but call timing
// and byte counters around the stack. --trace 1 runs an untraced phase and
// a traced phase of seconds/2 each, prints the per-layer metrics from the
// traced phase, and prints the tracing overhead as the difference between
// the two phases' end-to-end metrics. The last stdout line is the result
// object; the line before it, "report {...}", carries every metric with its
// sample count plus the informational figures (tail percentiles, failure
// counts, virtual-clock check, machine context).
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "measure.hpp"
#include "placement.hpp"
#include "probes.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

constexpr int kSetups = 21;
constexpr double kProbeBudgetS = 0.04;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double median_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : quantile(v, 0.5);
}

std::vector<double> setup_column(const PhaseResult& r,
                                 double (*pick)(const SetupTimes&)) {
  std::vector<double> out;
  for (const auto& s : r.setups) out.push_back(pick(s));
  return out;
}

/// Median over the phase's windows of one window rate.
double window_median(const PhaseResult& r, double Window::*rate) {
  std::vector<double> v;
  for (const Window& w : r.windows) v.push_back(w.*rate);
  return median_or_zero(v);
}

std::vector<Metric> end_to_end(const PhaseResult& r) {
  const auto n = static_cast<std::uint64_t>(r.call_us.size());
  const auto windows = static_cast<std::uint64_t>(r.windows.size());
  return {
      {"setup_s",
       median_or_zero(setup_column(r, [](const SetupTimes& s) {
         return s.total();
       })),
       "s", r.setups.size()},
      {"calls_per_s", window_median(r, &Window::calls_per_s), "1/s", windows},
      {"call_us_p50", quantile(r.call_us, 0.50), "us", n},
      {"call_us_p90", quantile(r.call_us, 0.90), "us", n},
      {"burst_us_p50", quantile(r.unit_us, 0.50), "us", r.unit_us.size()},
      {"h2d_mib_s", window_median(r, &Window::h2d_mib_s), "MiB/s", windows},
      {"d2h_mib_s", window_median(r, &Window::d2h_mib_s), "MiB/s", windows},
      {"cpu_us_per_call", window_median(r, &Window::cpu_us_per_call), "us",
       windows},
      {"cpu_s_per_gib", window_median(r, &Window::cpu_s_per_gib), "s/GiB",
       windows},
  };
}

std::vector<Metric> tail_info(const PhaseResult& r) {
  const auto n = static_cast<std::uint64_t>(r.call_us.size());
  return {{"call_us_p99", quantile(r.call_us, 0.99), "us", n},
          {"call_us_p99.9", quantile(r.call_us, 0.999), "us", n},
          {"failed_ratio",
           safe_div(static_cast<double>(r.failed),
                    static_cast<double>(r.attempted)),
           "ratio", r.attempted}};
}

std::vector<Metric> per_layer(const PhaseResult& r) {
  const auto calls = static_cast<double>(r.call_us.size());
  const auto n = static_cast<std::uint64_t>(r.call_us.size());
  const auto per_call = [&](double v) { return safe_div(v, calls); };
  const auto us_per_call = [&](std::int64_t ns) {
    return per_call(static_cast<double>(ns) * 1e-3);
  };
  const double call_us = per_call(sum(r.call_us));
  const double send_us = us_per_call(r.guest.send_ns);
  const double recv_us = us_per_call(r.guest.recv_ns);
  const double busy_us = us_per_call(r.server.busy_ns);
  const double server_send_us = us_per_call(r.server.send_ns);
  const double self_us = call_us - send_us - recv_us;
  const LayerCounters& c = r.counters;
  const auto ms = [&](double (*pick)(const SetupTimes&)) {
    return median_or_zero(setup_column(r, pick)) * 1e3;
  };
  const auto setups = static_cast<std::uint64_t>(r.setups.size());
  return {
      {"cricket.client.self_us", self_us, "us", n},
      {"vnet.send_us", send_us, "us", r.guest.sends},
      {"vnet.sends_per_call", per_call(static_cast<double>(r.guest.sends)),
       "count", n},
      {"vnet.recv_wait_us", recv_us, "us", r.guest.recvs},
      {"vnet.recvs_per_call", per_call(static_cast<double>(r.guest.recvs)),
       "count", n},
      {"vnet.frames_per_call", per_call(static_cast<double>(c.frames)),
       "count", n},
      {"vnet.kicks_per_call", per_call(static_cast<double>(c.tx_kicks)),
       "count", n},
      {"vnet.rx_interrupts_per_call",
       per_call(static_cast<double>(c.rx_interrupts)), "count", n},
      {"vnet.sw_checksums_per_call",
       per_call(static_cast<double>(c.sw_checksums)), "count", n},
      {"cricket.server.busy_us", busy_us, "us", r.server.replies},
      {"rpc.server_send_us", server_send_us, "us", r.server.sends},
      {"rpc.server_idle_us", us_per_call(r.server.idle_ns), "us", n},
      {"handoff_us", recv_us - busy_us - server_send_us, "us", n},
      {"cricket.server.rpcs_per_call",
       per_call(static_cast<double>(c.server_rpcs)), "count", n},
      {"gpusim.copy_bytes_per_payload_byte",
       safe_div(static_cast<double>(c.gpu_copy_bytes),
                static_cast<double>(r.payload_bytes)),
       "ratio", n},
      {"rpcflow.issue_us",
       safe_div(r.launch_us_sum, static_cast<double>(r.launches)), "us",
       r.launches},
      {"rpcflow.sync_wait_us",
       safe_div(r.sync_us_sum, static_cast<double>(r.syncs)), "us", r.syncs},
      {"rpcflow.calls_per_flush",
       safe_div(static_cast<double>(c.async_api_calls),
                static_cast<double>(c.batch_flushes)),
       "count", c.batch_flushes},
      {"rpcflow.unflushed_waits", static_cast<double>(c.unflushed_waits),
       "count", n},
      {"rpc.server_replies_per_send",
       safe_div(static_cast<double>(r.server.replies),
                static_cast<double>(r.server.sends)),
       "ratio", r.server.sends},
      {"gpusim.node_setup_ms", ms([](const SetupTimes& s) { return s.node_s; }),
       "ms", setups},
      {"env.connect_ms", ms([](const SetupTimes& s) { return s.connect_s; }),
       "ms", setups},
      {"cricket.client_setup_ms",
       ms([](const SetupTimes& s) { return s.client_s; }), "ms", setups},
      {"cricket.module_load_ms",
       ms([](const SetupTimes& s) { return s.load_s; }), "ms", setups},
  };
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_object(const std::vector<Metric>& metrics,
                           bool with_samples) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out << (i ? ", " : "") << json_string(m.name)
        << ": {\"value\": " << json_number(m.value)
        << ", \"unit\": " << json_string(m.unit);
    if (with_samples) out << ", \"samples\": " << m.samples;
    out << "}";
  }
  out << "}";
  return out.str();
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics)
    std::printf("  %-36s %16.4f %-6s n=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
}

/// Fixes glibc's malloc thresholds. By default the mmap threshold adapts to
/// the first large blocks freed, per arena, so whether a 16 MiB XDR buffer
/// is reused from the heap or faulted in fresh from mmap differs from one
/// process to the next, and bulk throughput with it (by ~40% here). With
/// the threshold at its 32 MiB maximum and trimming off, every run reuses
/// heap memory the same way.
void fix_malloc_thresholds() {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string virtual_report(const PhaseResult& r, bool& all_match) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  std::printf("virtual clock (ns per operation):\n");
  for (const auto& [op, v] : r.virtual_ns) {
    const double mean = safe_div(v.sum_ns, static_cast<double>(v.count));
    std::printf("  %-16s n=%llu mean=%.1f min=%lld max=%lld pinned=%lld "
                "tolerance=%.4f mismatches=%llu\n",
                op.c_str(), static_cast<unsigned long long>(v.count), mean,
                static_cast<long long>(v.min_ns),
                static_cast<long long>(v.max_ns),
                static_cast<long long>(v.pinned_ns), v.tolerance,
                static_cast<unsigned long long>(v.mismatches));
    all_match = all_match && v.mismatches == 0;
    out << (first ? "" : ", ") << json_string(op) << ": {\"count\": "
        << v.count << ", \"mean_ns\": " << json_number(mean)
        << ", \"min_ns\": " << v.min_ns << ", \"max_ns\": " << v.max_ns
        << ", \"pinned_ns\": " << v.pinned_ns
        << ", \"tolerance\": " << json_number(v.tolerance)
        << ", \"mismatches\": " << v.mismatches << "}";
    first = false;
  }
  out << "}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      trace = std::atoi(value.c_str());
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (argc % 2 == 0) usage("options take one value each");
  const WorkloadSpec* spec = find_workload(workload);
  if (spec == nullptr) usage(("unknown workload '" + workload + "'").c_str());
  if (!(seconds > 0) || (trace != 0 && trace != 1))
    usage("--seconds must be > 0 and --trace 0 or 1");

  Placement placement;
  std::string why;
  if (!make_placement(placement, why)) {
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    return 1;
  }
  run_on(placement.caller_cpu);
  fix_malloc_thresholds();

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              seconds, trace);
  const std::string cpu = cpu_model();
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("machine: nproc=%u cpu=\"%s\" build=%s caller_cpu=%d "
              "stack_cpu=%d\n",
              nproc, cpu.c_str(), PERFBENCH_BUILD_TYPE, placement.caller_cpu,
              placement.stack_cpu);

  PhaseOptions options{.spec = spec,
                       .seed = seed,
                       .seconds = trace ? seconds / 2 : seconds,
                       .traced = false,
                       .setups = kSetups,
                       .placement = placement};
  const PhaseResult plain = run_phase(options);
  const std::vector<Metric> e2e = end_to_end(plain);
  print_table("end-to-end (untraced):", e2e);
  print_table("information only:", tail_info(plain));

  std::uint64_t attempted = plain.attempted;
  std::uint64_t failed = plain.failed;
  bool virtual_match = true;
  std::string virtual_json = virtual_report(plain, virtual_match);
  std::vector<Metric> result_metrics = e2e;
  std::string extra;

  if (trace) {
    options.traced = true;
    const PhaseResult traced = run_phase(options);
    attempted += traced.attempted;
    failed += traced.failed;
    virtual_json = virtual_report(traced, virtual_match);

    std::vector<Metric> layers = per_layer(traced);
    const ProbeResult probes =
        run_probes(spec->probe_sizes, seed, kProbeBudgetS);
    ++attempted;
    if (!probes.ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: a layer probe returned a wrong "
                           "result\n");
    }
    layers.insert(layers.end(), probes.metrics.begin(), probes.metrics.end());
    print_table("per-layer (traced):", layers);

    // The serial workloads' call time splits into these segments exactly.
    const auto find = [&](const char* name) {
      for (const Metric& m : layers)
        if (m.name == name) return m.value;
      return 0.0;
    };
    const double segments = find("cricket.client.self_us") +
                            find("vnet.send_us") +
                            find("cricket.server.busy_us") +
                            find("rpc.server_send_us") + find("handoff_us");
    const double call_mean =
        safe_div(sum(traced.call_us), static_cast<double>(traced.call_us.size()));
    std::printf("segment sum %.4f us vs mean call %.4f us\n", segments,
                call_mean);

    const std::vector<Metric> traced_e2e = end_to_end(traced);
    std::ostringstream overhead;
    overhead << "{";
    std::printf("tracing overhead (traced - untraced):\n");
    for (std::size_t i = 0; i < e2e.size(); ++i) {
      const double delta = traced_e2e[i].value - e2e[i].value;
      const double pct = safe_div(delta * 100.0, e2e[i].value);
      std::printf("  %-36s %+14.4f %-6s (%+.2f%%)\n", e2e[i].name.c_str(),
                  delta, e2e[i].unit.c_str(), pct);
      overhead << (i ? ", " : "") << json_string(e2e[i].name)
               << ": {\"untraced\": " << json_number(e2e[i].value)
               << ", \"traced\": " << json_number(traced_e2e[i].value)
               << ", \"unit\": " << json_string(e2e[i].unit) << "}";
    }
    overhead << "}";
    extra = ", \"per_layer\": " + metrics_object(layers, true) +
            ", \"trace_overhead\": " + overhead.str() +
            ", \"segment_sum_us\": " + json_number(segments) +
            ", \"call_mean_us\": " + json_number(call_mean);
    result_metrics = layers;
  }

  std::printf("attempted=%llu failed=%llu virtual_clock=%s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              virtual_match ? "match" : "MISMATCH");
  std::printf(
      "report {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"machine\": {\"nproc\": %u, \"cpu\": %s, \"build\": "
      "%s, \"caller_cpu\": %d, \"stack_cpu\": %d}, \"end_to_end\": %s, "
      "\"info\": %s, \"attempted\": %llu, "
      "\"failed\": %llu, \"virtual_clock\": %s, \"virtual_match\": %s%s}\n",
      json_string(workload).c_str(), static_cast<unsigned long long>(seed),
      json_number(seconds).c_str(), trace, nproc, json_string(cpu).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(), placement.caller_cpu,
      placement.stack_cpu,
      metrics_object(e2e, true).c_str(),
      metrics_object(tail_info(plain), true).c_str(),
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), virtual_json.c_str(),
      virtual_match ? "true" : "false", extra.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_object(result_metrics, false).c_str());
  return 0;
}
