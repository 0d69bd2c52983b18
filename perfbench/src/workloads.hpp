// The three benchmark workloads and the measured phase that runs one.
//
// Every workload is a closed loop: one caller thread on one connection
// issues the next call only after the previous one returns. The seed sets
// buffer contents and the order of calls in the mix; the stack receives only
// the generated calls.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "env/environment.hpp"
#include "measure.hpp"
#include "placement.hpp"
#include "stack.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  cricket::env::EnvKind env;
  bool pipelined = false;
  /// Payload sizes the layer probes run at (the workload's own sizes).
  std::vector<std::size_t> probe_sizes;
};

/// The named workload; nullptr for an unknown name.
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);

/// Virtual-time samples of one kind of operation and how many of them
/// missed their pinned value.
struct VirtualStat {
  std::uint64_t count = 0;
  std::int64_t min_ns = 0;
  std::int64_t max_ns = 0;
  double sum_ns = 0;
  std::uint64_t mismatches = 0;
  std::int64_t pinned_ns = 0;
  double tolerance = 0;  // relative; 0 = must match exactly
};

/// Deltas of program counters over the measured phase.
struct LayerCounters {
  std::uint64_t frames = 0;          // virtio frames, both directions
  std::uint64_t tx_kicks = 0;        // virtqueue notifications (VM exits)
  std::uint64_t rx_interrupts = 0;
  std::uint64_t sw_checksums = 0;
  std::uint64_t server_rpcs = 0;     // cricket_server_rpcs_total
  std::uint64_t gpu_copy_bytes = 0;  // cricket_gpu_copy_bytes_total h2d+d2h
  std::uint64_t async_api_calls = 0; // cricket_client_api_calls_total, async
  std::uint64_t batch_flushes = 0;   // cricket_batch_flushes_total
  std::uint64_t unflushed_waits = 0; // cricket_batch_unflushed_waits_total
};

/// Rates over one window: the repeat units completed in at least
/// kWindowSeconds of wall time. Rate metrics report the median window, so a
/// short stall of the machine moves them less than a whole-run mean.
struct Window {
  double calls_per_s = 0;
  double h2d_mib_s = 0;
  double d2h_mib_s = 0;
  double cpu_us_per_call = 0;
  double cpu_s_per_gib = 0;
};
inline constexpr double kWindowSeconds = 0.2;

struct PhaseResult {
  std::vector<SetupTimes> setups;
  std::vector<double> call_us;  // every forwarded call in the phase
  std::vector<double> unit_us;  // every repeat unit (round / size cycle / burst)
  std::vector<Window> windows;
  // Wire bytes per direction, and the call time apportioned to each
  // direction by each call's share of the bytes it moved.
  double h2d_bytes = 0, h2d_s = 0, d2h_bytes = 0, d2h_s = 0;
  std::uint64_t payload_bytes = 0;  // memcpy bytes the application moved
  // Calls by kind, for the rpcflow split.
  double launch_us_sum = 0, sync_us_sum = 0;
  std::uint64_t launches = 0, syncs = 0;
  std::uint64_t attempted = 0, failed = 0;
  std::map<std::string, VirtualStat> virtual_ns;
  // Traced run only.
  GuestTap::Totals guest{};
  ServerTap::Totals server{};
  LayerCounters counters{};
};

struct PhaseOptions {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool traced = false;
  int setups = 0;  // set-ups sampled for setup_s (the last one is measured)
  Placement placement;
};

[[nodiscard]] PhaseResult run_phase(const PhaseOptions& options);

}  // namespace perfbench
