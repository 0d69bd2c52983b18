// Execution-environment presets: Table 1 of the paper as code.
//
//   | Name     | app  | OS          | Hypervisor | Network |
//   |----------|------|-------------|------------|---------|
//   | C        | C    | Rocky Linux | -          | native  |
//   | Rust     | Rust | Rocky Linux | -          | native  |
//   | Linux VM | Rust | Fedora VM   | QEMU       | virtio  |
//   | Unikraft | Rust | Unikraft    | QEMU       | virtio  |
//   | Hermit   | Rust | Hermit      | QEMU       | virtio  |
//
// Each preset binds a NetworkProfile (offload feature set + CPU cost
// parameters, see src/vnet/cost_model.hpp) and a client flavour (the
// libtirpc C client vs the RPC-Lib Rust client). `connect()` builds the
// full data path: guest transport (virtio-net for virtualized rows, shaped
// host networking otherwise) wired to a server-side transport that models
// the GPU node's native Linux stack.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "rpc/transport.hpp"
#include "sim/sim_clock.hpp"
#include "vnet/cost_model.hpp"

namespace cricket::env {

enum class EnvKind {
  kNativeC,
  kNativeRust,
  kLinuxVm,
  kUnikraft,
  kRustyHermit,
};

/// Client implementation flavour: libtirpc (C) vs RPC-Lib (Rust).
struct ClientFlavor {
  std::string name;
  /// Fixed client-library overhead per forwarded API call (marshalling,
  /// dispatch).
  sim::Nanos per_call_ns = 0;
  /// Extra client work per kernel launch. The C path keeps compatibility
  /// logic for the <<<...>>> launch operator that the Rust path omits —
  /// the paper measured the Rust launches ~6.3 % faster (§4.2).
  sim::Nanos launch_extra_ns = 0;
  /// Rust applications use a fast RNG for input initialization; the C CUDA
  /// samples use a slower one (§4.1, histogram discussion).
  bool fast_rng = true;
};

/// RPC pipelining knob (ClientConfig::pipeline picks RemoteCudaApi's RPC
/// core). Off in every Table-1 preset: the paper's stack is strictly one
/// synchronous RPC at a time (§4.2), and the reproduction benches must keep
/// matching it. Opt in per experiment with `with_pipelining`.
struct PipelineConfig {
  bool enabled = false;
  /// Max calls in flight on the connection before the client blocks.
  std::uint32_t depth = 32;
  /// Coalesce back-to-back sub-MTU calls into one record flush.
  bool batching = true;
};

struct Environment {
  EnvKind kind = EnvKind::kNativeRust;
  std::string name;        // Table 1 "Name"
  std::string app_lang;    // Table 1 "app."
  std::string os;          // Table 1 "OS"
  std::string hypervisor;  // Table 1 "Hypervisor" ("-" if none)
  std::string network;     // Table 1 "Network"
  vnet::NetworkProfile profile;
  ClientFlavor flavor;
  PipelineConfig pipeline;  // defaults to off (paper-faithful)
  /// Enable the obs span collector for runs under this environment. Off by
  /// default: Table-1 presets measure the stack, not the instrumentation.
  bool tracing = false;
  /// faultnet injection spec (FaultSpec::parse syntax, e.g.
  /// "drop=0.05,seed=42"). Empty = clean network (every Table-1 preset).
  /// When set, connect() wraps both directions in FaultyTransport with
  /// per-direction seeds derived from the spec seed, so guest->server and
  /// server->guest draw independent but reproducible fault streams.
  std::string faults{};
  /// Two-phase module-load negotiation against the server's
  /// content-addressed module cache (modcache): clients probe by truncated
  /// SHA-256 image hash (plus a proof of possession) before uploading. Off
  /// by default: Table-1 presets measure the historical upload path.
  bool module_cache = false;
};

/// Returns a copy of `environment` with RPC pipelining switched on.
[[nodiscard]] Environment with_pipelining(Environment environment,
                                          std::uint32_t depth = 32,
                                          bool batching = true);

/// Returns a copy of `environment` with obs tracing switched on. Harness
/// code (bench_util's Rig) reacts by enabling the span collector and binding
/// the trace time source to the run's SimClock.
[[nodiscard]] Environment with_tracing(Environment environment);

/// Returns a copy of `environment` with a faultnet spec attached (validated
/// eagerly: throws std::invalid_argument on a malformed spec).
[[nodiscard]] Environment with_faults(Environment environment,
                                      std::string spec);

/// Returns a copy of `environment` with module-cache negotiation switched
/// on. Harness code (bench_util's Rig) reacts by enabling the server-side
/// cache and the clients' hash-first load path.
[[nodiscard]] Environment with_module_cache(Environment environment);

[[nodiscard]] Environment make_environment(EnvKind kind);

/// All five Table 1 rows, in the paper's order.
[[nodiscard]] std::vector<Environment> all_environments();

/// The GPU node's side of the connection: native Linux, ConnectX-5, all
/// offloads — identical for every client environment.
[[nodiscard]] vnet::NetworkProfile server_profile();

/// A connected guest<->server transport pair for the given environment.
struct Connection {
  std::unique_ptr<rpc::Transport> guest;   // client/application side
  std::unique_ptr<rpc::Transport> server;  // Cricket-server side
};

[[nodiscard]] Connection connect(const Environment& environment,
                                 sim::SimClock& clock);

}  // namespace cricket::env
