// cricket_server: the GPU-node daemon.
//
// Boots a simulated GPU node, optionally registers with a portmapper-style
// announcement on stdout, and serves Cricket RPC connections over TCP until
// killed (or until --max-sessions sessions have completed, for scripted
// use).
//
//   $ cricket_server [--port=0] [--gpus=a100|testbed] [--scheduler=fifo|fair]
//                    [--checkpoint-dir=DIR] [--max-sessions=N]
//
// Prints "LISTENING <port>" once ready — drive it with cricket_client.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "cricket/server.hpp"
#include "cudart/local_api.hpp"
#include "rpc/server.hpp"
#include "rpc/transport.hpp"
#include "workloads/kernels.hpp"

namespace {

std::string arg_value(int argc, char** argv, const std::string& name,
                      const std::string& fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]).rfind(prefix, 0) == 0)
      return std::string(argv[i]).substr(prefix.size());
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cricket;

  const std::string gpus = arg_value(argc, argv, "gpus", "a100");
  const std::string sched = arg_value(argc, argv, "scheduler", "fifo");
  const int max_sessions =
      std::atoi(arg_value(argc, argv, "max-sessions", "0").c_str());

  auto node = gpus == "testbed" ? cuda::GpuNode::make_paper_testbed()
                                : cuda::GpuNode::make_a100();
  workloads::register_sample_kernels(node->registry());

  core::ServerOptions options;
  options.scheduler = sched == "fair" ? core::SchedulerPolicy::kFairShare
                                      : core::SchedulerPolicy::kFifo;
  options.checkpoint_dir = arg_value(argc, argv, "checkpoint-dir", ".");
  core::CricketServer server(*node, options);

  rpc::TcpListener listener;
  std::printf("LISTENING %u\n", listener.port());
  std::printf("cricket_server: %d GPU(s), %s scheduler, checkpoints in %s\n",
              node->device_count(), sched.c_str(),
              options.checkpoint_dir.c_str());
  std::fflush(stdout);

  rpc::ConnectionThreads sessions;
  int served = 0;
  for (;;) {
    auto conn = listener.accept();
    if (!conn) break;
    sessions.spawn([&server, c = std::shared_ptr<rpc::Transport>(
                                 std::move(conn))] { server.serve(*c); });
    ++served;
    if (max_sessions > 0 && served >= max_sessions) break;
  }
  sessions.join_all();
  std::printf("cricket_server: served %llu sessions, %llu RPCs\n",
              static_cast<unsigned long long>(server.stats().sessions.load()),
              static_cast<unsigned long long>(server.stats().rpcs.load()));
  return 0;
}
