// Clocks, sample statistics and result records for the benchmark.
//
// Everything here is real time: steady_clock for durations and the process
// CPU clock (all threads: client, vnet backends, server, rpcflow reader) for
// cost. Virtual time comes from the stack's own sim::SimClock.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds consumed by every thread of this process so far.
[[nodiscard]] inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Nearest-rank quantile, q in [0, 1]. NaN for an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(idx),
                   values.end());
  return values[idx];
}

/// One reported number: value, unit, and how many samples it rests on.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};

[[nodiscard]] inline double safe_div(double num, double den) {
  return den == 0 ? 0.0 : num / den;
}

}  // namespace perfbench
