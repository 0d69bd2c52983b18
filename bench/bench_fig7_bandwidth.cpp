// Figure 7: memory transfer bandwidth (bandwidthTest, 512 MiB, A100,
// 100 Gbit/s link) — device-to-host (a) and host-to-device (b).
//
// Paper shape: the unikernels cannot approach native bandwidth (RustyHermit
// ~9.8% of native in one direction) because they lack TSO (and, for
// Unikraft, checksum offload); the Linux VM retains >= ~80%. Disabling the
// VM's TX offloads (TSO, transmit checksum, scatter-gather) collapses its
// host-to-device bandwidth to ~923.9 MiB/s while device-to-host degrades
// far less — the ablation reproduced by --ablate (on by default).
//
// Flags: --dir=h2d|d2h|both   --mib=N (default 512)   --runs=N (default 2)
// Exits 1 when any row's bytes did not round-trip (printed UNVERIFIED).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sim/stats.hpp"
#include "workloads/bandwidth_test.hpp"

namespace {

using namespace cricket;
using bench::Rig;

struct Row {
  std::string config;
  double mib_per_s = 0;
  bool verified = true;
};

double run_direction(Rig& rig, workloads::CopyDirection dir,
                     std::uint64_t bytes, std::uint32_t runs,
                     bool* verified) {
  workloads::BandwidthConfig cfg;
  cfg.bytes = bytes;
  cfg.runs = runs;
  cfg.direction = dir;
  cfg.verify = true;
  rig.clock().reset();
  const auto report = workloads::run_bandwidth_test(
      rig.api(), rig.clock(), rig.environment().flavor, cfg);
  *verified = report.base.verified;
  return report.mib_per_s;
}

void print_rows(const char* title, const char* paper_note,
                const std::vector<Row>& rows) {
  std::printf("\n--- Figure 7: %s ---\n", title);
  std::printf("paper: %s\n", paper_note);
  const double native = rows[1].mib_per_s;
  for (const auto& row : rows) {
    std::printf("%-16s %10.1f MiB/s   %5.1f%% of native-Rust  %s\n",
                row.config.c_str(), row.mib_per_s,
                row.mib_per_s / native * 100.0,
                row.verified ? "" : "UNVERIFIED");
  }
}

env::Environment vm_without_tx_offloads() {
  auto e = env::make_environment(env::EnvKind::kLinuxVm);
  e.name = "VM-no-offl";
  // Exactly the paper's ablation: TCP segmentation offloading, transmit
  // checksum offloading, and scatter-gather off; receive side untouched.
  e.profile.offloads.tso = false;
  e.profile.offloads.tx_checksum = false;
  e.profile.offloads.scatter_gather = false;
  return e;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = bench::arg_value(argc, argv, "dir", "both");
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(
          std::atoll(bench::arg_value(argc, argv, "mib", "512").c_str()))
      << 20;
  const auto runs = static_cast<std::uint32_t>(
      std::atoi(bench::arg_value(argc, argv, "runs", "2").c_str()));

  std::printf("Figure 7 reproduction: bandwidthTest with %llu MiB x %u runs\n",
              static_cast<unsigned long long>(bytes >> 20), runs);

  std::vector<env::Environment> environments = env::all_environments();
  environments.push_back(vm_without_tx_offloads());
  bool all_verified = true;

  if (dir == "d2h" || dir == "both") {
    std::vector<Row> rows;
    for (const auto& environment : environments) {
      Rig rig(environment);
      Row row{environment.name, 0, true};
      row.mib_per_s =
          run_direction(rig, workloads::CopyDirection::kDeviceToHost, bytes,
                        runs, &row.verified);
      all_verified = all_verified && row.verified;
      rows.push_back(row);
    }
    print_rows("(a) memory transfer from device to host",
               "unikernels ~10% of native; VM >= 80%; removing the VM's TX "
               "offloads barely hurts this direction",
               rows);
  }
  if (dir == "h2d" || dir == "both") {
    std::vector<Row> rows;
    for (const auto& environment : environments) {
      Rig rig(environment);
      Row row{environment.name, 0, true};
      row.mib_per_s =
          run_direction(rig, workloads::CopyDirection::kHostToDevice, bytes,
                        runs, &row.verified);
      all_verified = all_verified && row.verified;
      rows.push_back(row);
    }
    print_rows("(b) memory transfer from host to device",
               "RustyHermit ~9.8% of native; VM without TX offloads drops "
               "to ~923.9 MiB/s",
               rows);
  }
  // A row whose bytes did not round-trip measured a broken transfer.
  return all_verified ? 0 : 1;
}
