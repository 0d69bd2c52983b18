// Direct probes of single layer functions at a workload's own sizes: XDR
// opaque encode/decode, record marking over a pipe, the wire ByteQueue,
// virtio frame build/parse, the internet checksum, and gpusim copies and
// launches through cuda::LocalCudaApi on the benchmark's own GpuNode.
#pragma once

#include <cstdint>
#include <vector>

#include "measure.hpp"

namespace perfbench {

struct ProbeResult {
  std::vector<Metric> metrics;
  bool ok = true;  // false when a probed layer returned a wrong result
};

/// Each probe runs at every size for `budget_s` of wall time (at least once).
[[nodiscard]] ProbeResult run_probes(const std::vector<std::size_t>& sizes,
                                     std::uint64_t seed, double budget_s);

}  // namespace perfbench
