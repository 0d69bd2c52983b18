#include "placement.hpp"

#include <sched.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

bool make_placement(Placement& placement, std::string& why) {
  const sched_param param{};
  if (sched_setscheduler(0, SCHED_BATCH, &param) != 0) {
    why = std::string("cannot set SCHED_BATCH: ") + std::strerror(errno);
    return false;
  }
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    why = std::string("cannot read the CPU set: ") + std::strerror(errno);
    return false;
  }
  placement = {};
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (placement.stack_cpu < 0) {
      placement.stack_cpu = cpu;
    } else {
      placement.caller_cpu = cpu;
      return true;
    }
  }
  why = "needs at least two CPUs, the process may use " +
        std::to_string(CPU_COUNT(&allowed));
  return false;
}

void run_on(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) == 0) return;
  std::fprintf(stderr, "perfbench: cannot move to CPU %d: %s\n", cpu,
               std::strerror(errno));
  std::_Exit(1);  // the stack's threads may be running; end them all
}

}  // namespace perfbench
