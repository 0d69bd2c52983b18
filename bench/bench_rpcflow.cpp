// RPC pipelining bench: serial vs pipelined vs pipelined+batched.
//
// The paper's forwarding stack is one synchronous RPC per CUDA call (§4.2),
// so Figure 6a's no-payload micro-calls pay a full round trip each. This
// bench quantifies what the RPC client's opt-in pipelining buys back on the
// same simulated wire: for every Table-1 environment it storms N no-payload
// calls (cudaSetDevice(0), a fire-and-forget proc) through
//
//   serial      — the stock RemoteCudaApi, one synchronous RPC per call
//   pipelined   — RemoteCudaApi with pipelining on, depth-D
//                 xid-multiplexed window, every call its own wire record
//   pipe+batch  — same window plus the small-call batcher (one wire record
//                 flush per coalesced group) and server reply coalescing
//
// and reports virtual-time calls/sec plus speedup over serial. Acceptance
// target (ISSUE): >= 4x calls/sec over serial at depth >= 8 on at least one
// environment. A machine-readable JSON summary is written as well.
//
// Flags: --calls=N  --depth=D  --json=PATH
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sim/stats.hpp"

namespace {

using namespace cricket;

struct Mode {
  std::string name;
  sim::Nanos total = 0;
  double calls_per_sec = 0;
  double speedup = 1.0;
};

struct EnvResult {
  std::string environment;
  std::vector<Mode> modes;
};

double to_calls_per_sec(std::uint64_t calls, sim::Nanos total) {
  return total == 0 ? 0.0
                    : static_cast<double>(calls) /
                          (static_cast<double>(total) / 1e9);
}

/// Virtual time for `calls` fire-and-forget calls through bench::Rig's
/// client, pipelined when `environment` says so.
sim::Nanos run(const env::Environment& environment, std::uint64_t calls) {
  bench::Rig rig(environment);
  rig.clock().reset();
  const sim::SimStopwatch sw(rig.clock());
  for (std::uint64_t i = 0; i < calls; ++i)
    cuda::check(rig.api().set_device(0));
  cuda::check(rig.api().drain());
  return sw.elapsed();
}

void write_json(const std::string& path, std::uint64_t calls,
                std::uint32_t depth, const std::vector<EnvResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"rpcflow\",\n");
  std::fprintf(f, "  \"proc\": \"cudaSetDevice\",\n");
  std::fprintf(f, "  \"calls\": %llu,\n  \"depth\": %u,\n",
               static_cast<unsigned long long>(calls), depth);
  std::fprintf(f, "  \"environments\": [\n");
  for (std::size_t e = 0; e < results.size(); ++e) {
    const auto& env_result = results[e];
    std::fprintf(f, "    {\"name\": \"%s\", \"modes\": [\n",
                 env_result.environment.c_str());
    for (std::size_t m = 0; m < env_result.modes.size(); ++m) {
      const auto& mode = env_result.modes[m];
      std::fprintf(f,
                   "      {\"mode\": \"%s\", \"total_ns\": %llu, "
                   "\"calls_per_sec\": %.1f, \"speedup_vs_serial\": %.2f}%s\n",
                   mode.name.c_str(),
                   static_cast<unsigned long long>(mode.total),
                   mode.calls_per_sec, mode.speedup,
                   m + 1 < env_result.modes.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", e + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nJSON summary written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const auto calls = static_cast<std::uint64_t>(
      std::atoll(bench::arg_value(argc, argv, "calls", "20000").c_str()));
  const auto depth = static_cast<std::uint32_t>(
      std::atoi(bench::arg_value(argc, argv, "depth", "32").c_str()));
  const std::string json_path =
      bench::arg_value(argc, argv, "json", "bench_rpcflow.json");

  std::printf("rpcflow pipelining: %llu no-payload cudaSetDevice calls, "
              "window depth %u\n",
              static_cast<unsigned long long>(calls), depth);
  std::printf("(virtual time; serial = the paper-faithful synchronous "
              "client)\n");

  std::vector<EnvResult> results;
  for (const auto& environment : env::all_environments()) {
    EnvResult env_result;
    env_result.environment = environment.name;

    std::fprintf(stderr, "[%s] serial...\n", environment.name.c_str());
    Mode serial{.name = "serial"};
    serial.total = run(environment, calls);
    serial.calls_per_sec = to_calls_per_sec(calls, serial.total);
    env_result.modes.push_back(serial);

    std::fprintf(stderr, "[%s] pipelined...\n", environment.name.c_str());
    Mode pipelined{.name = "pipelined"};
    pipelined.total =
        run(env::with_pipelining(environment, depth, false), calls);
    pipelined.calls_per_sec = to_calls_per_sec(calls, pipelined.total);
    pipelined.speedup = static_cast<double>(serial.total) /
                        static_cast<double>(pipelined.total);
    env_result.modes.push_back(pipelined);

    std::fprintf(stderr, "[%s] pipelined+batched...\n",
                 environment.name.c_str());
    Mode batched{.name = "pipelined+batched"};
    batched.total =
        run(env::with_pipelining(environment, depth, true), calls);
    batched.calls_per_sec = to_calls_per_sec(calls, batched.total);
    batched.speedup = static_cast<double>(serial.total) /
                      static_cast<double>(batched.total);
    env_result.modes.push_back(batched);

    results.push_back(std::move(env_result));
  }

  std::printf("\n%-10s %-18s %14s %16s %10s\n", "config", "mode", "total",
              "calls/sec", "speedup");
  for (const auto& env_result : results) {
    for (const auto& mode : env_result.modes) {
      std::printf("%-10s %-18s %14s %16.0f %9.2fx\n",
                  env_result.environment.c_str(), mode.name.c_str(),
                  sim::format_nanos(static_cast<double>(mode.total)).c_str(),
                  mode.calls_per_sec, mode.speedup);
    }
  }

  bool target_met = false;
  for (const auto& env_result : results)
    for (const auto& mode : env_result.modes)
      if (mode.speedup >= 4.0) target_met = true;
  std::printf("\n>=4x over serial on at least one environment: %s\n",
              target_met ? "yes" : "NO");

  write_json(json_path, calls, depth, results);
  return target_met ? 0 : 1;
}
