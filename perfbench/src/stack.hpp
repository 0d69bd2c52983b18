// One Table-1 client<->server stack built from public constructors, with
// each set-up step timed and both transport ends tapped.
#pragma once

#include <memory>
#include <thread>

#include "cricket/server.hpp"
#include "cudart/api.hpp"
#include "cudart/local_api.hpp"
#include "env/environment.hpp"
#include "taps.hpp"
#include "vnet/virtio_net.hpp"

namespace perfbench {

struct StackConfig {
  cricket::env::Environment environment;
  /// AsyncRemoteCudaApi (depth 32, batching) against the server's pipelined
  /// loop (serve.workers = 1) instead of the serial RemoteCudaApi.
  bool pipelined = false;
  /// Traced run: time inside the guest transport and tap the server end.
  bool traced = false;
};

/// Wall seconds of each set-up step; the workload adds `load_s`.
struct SetupTimes {
  double node_s = 0;     // GpuNode::make_a100 + sample kernel registration
  double connect_s = 0;  // env::connect (guest memory arenas, backends)
  double client_s = 0;   // CricketServer + serve_async + CUDA client
  double load_s = 0;     // module load or buffer allocation
  [[nodiscard]] double total() const {
    return node_s + connect_s + client_s + load_s;
  }
};

class Stack {
 public:
  Stack(const StackConfig& config, SetupTimes& times);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  [[nodiscard]] cricket::cuda::CudaApi& api() { return *api_; }
  [[nodiscard]] cricket::cuda::GpuNode& node() { return *node_; }
  [[nodiscard]] cricket::sim::SimClock& clock() { return node_->clock(); }
  [[nodiscard]] const GuestTap& guest() const { return *guest_; }
  /// Null unless traced.
  [[nodiscard]] const ServerTap* server() const { return server_tap_; }
  /// Null on native presets.
  [[nodiscard]] const cricket::vnet::VirtioNetTransport* virtio() const {
    return virtio_;
  }

 private:
  void make_client(const StackConfig& config,
                   std::unique_ptr<cricket::rpc::Transport> guest);

  std::unique_ptr<cricket::cuda::GpuNode> node_;
  std::unique_ptr<cricket::core::CricketServer> server_;
  // Views into transports owned by api_ (guest) and the server thread.
  GuestTap* guest_ = nullptr;
  ServerTap* server_tap_ = nullptr;
  cricket::vnet::VirtioNetTransport* virtio_ = nullptr;
  std::thread server_thread_;
  std::unique_ptr<cricket::cuda::CudaApi> api_;
};

}  // namespace perfbench
