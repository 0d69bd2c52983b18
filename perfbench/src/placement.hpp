// Where the benchmark's threads run: two fixed CPUs under SCHED_BATCH.
//
// The caller thread runs on one CPU and every thread of the stack (vnet
// backends, server and its pipelined workers and writer, rpcflow reader and
// deadline flusher, gpusim pool) on the other. Threads inherit the CPU set
// and the policy of the thread that creates them, and the stack creates all
// of its threads while it is built, so the caller builds each stack from the
// stack CPU and then moves back to its own.
#pragma once

#include <string>

namespace perfbench {

struct Placement {
  int caller_cpu = -1;
  int stack_cpu = -1;
};

/// Sets SCHED_BATCH on the calling thread and picks the two highest CPUs it
/// may run on. Returns false, with the reason in `why`, when the policy
/// cannot be set or fewer than two CPUs are allowed.
[[nodiscard]] bool make_placement(Placement& placement, std::string& why);

/// Confines the calling thread to `cpu`. Exits the process with a message
/// on failure: figures measured elsewhere would not be comparable.
void run_on(int cpu);

}  // namespace perfbench
