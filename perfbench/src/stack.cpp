#include "stack.hpp"

#include "cricket/async_api.hpp"
#include "cricket/client.hpp"
#include "workloads/kernels.hpp"

namespace perfbench {

using namespace cricket;

Stack::Stack(const StackConfig& config, SetupTimes& times) {
  std::int64_t t = now_ns();
  const auto lap = [&t] {
    const std::int64_t now = now_ns();
    const double s = static_cast<double>(now - t) * 1e-9;
    t = now;
    return s;
  };

  node_ = cuda::GpuNode::make_a100();
  workloads::register_sample_kernels(node_->registry());
  times.node_s = lap();

  auto conn = env::connect(config.environment, node_->clock());
  times.connect_s = lap();

  // The guest's virtio counters are read through the pointer taken before
  // it is wrapped.
  virtio_ = dynamic_cast<vnet::VirtioNetTransport*>(conn.guest.get());
  auto guest = std::make_unique<GuestTap>(std::move(conn.guest), config.traced);
  guest_ = guest.get();
  std::unique_ptr<rpc::Transport> server_end = std::move(conn.server);
  if (config.traced) {
    auto tap = std::make_unique<ServerTap>(std::move(server_end));
    server_tap_ = tap.get();
    server_end = std::move(tap);
  }

  core::ServerOptions server_options;
  if (config.pipelined) server_options.serve.workers = 1;
  server_ = std::make_unique<core::CricketServer>(*node_, server_options);
  server_thread_ = server_->serve_async(std::move(server_end));
  try {
    make_client(config, std::move(guest));
  } catch (...) {
    // The failed constructor dropped the guest end, so the session ends.
    server_thread_.join();
    throw;
  }
  times.client_s = lap();
}

void Stack::make_client(const StackConfig& config,
                        std::unique_ptr<rpc::Transport> guest) {
  if (config.pipelined) {
    core::AsyncClientConfig client_config;
    client_config.flavor = config.environment.flavor;
    client_config.pipeline = env::PipelineConfig{
        .enabled = true, .depth = 32, .batching = true};
    api_ = std::make_unique<core::AsyncRemoteCudaApi>(
        std::move(guest), node_->clock(), client_config);
  } else {
    core::ClientConfig client_config{.flavor = config.environment.flavor,
                                     .profile = config.environment.profile};
    api_ = std::make_unique<core::RemoteCudaApi>(
        std::move(guest), node_->clock(), std::move(client_config));
  }
}

Stack::~Stack() {
  api_.reset();  // closes the connection; the server session ends
  if (server_thread_.joinable()) server_thread_.join();
}

}  // namespace perfbench
