// Device-memory transfer strategies (paper §4.2).
//
// "Cricket implements multiple methods for transferring device memory
// between applications and devices: RPC arguments, parallel sockets,
// InfiniBand and shared memory." The unikernels can only use RPC arguments
// (single TCP connection, single-threaded RPC library); this module
// implements the other software methods so their trade-off is reproducible:
//   * kRpcArgs         — payload inline in the RPC (the evaluated path).
//   * kParallelSockets — payload striped over N side-channel connections,
//                        sent/received by N threads.
//   * kSharedMemory    — local-only: client and server share the GPU node's
//                        address space; no wire traffic at all.
// (InfiniBand/GPUDirect has no software equivalent to simulate beyond
// shared memory's zero-copy behaviour; see DESIGN.md.)
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "rpc/transport.hpp"
#include "sim/sim_clock.hpp"
#include "vnet/cost_model.hpp"

namespace cricket::core {

enum class TransferMethod : std::uint32_t {
  kRpcArgs = 0,
  kParallelSockets = 1,
  kSharedMemory = 2,
};

/// A bundle of raw side-channel connections for parallel-socket transfers.
/// Lanes are *unshaped*: the transfer code charges aggregate virtual time
/// itself (per-lane costs overlap in real time, so the charge is the
/// serial cost divided by the lane count, plus one wire traversal).
struct TransferLanes {
  std::vector<std::unique_ptr<rpc::Transport>> lanes;

  [[nodiscard]] std::size_t count() const noexcept { return lanes.size(); }
};

/// Creates `n` connected lane pairs (client side, server side).
[[nodiscard]] std::pair<TransferLanes, TransferLanes> make_lane_pairs(
    std::size_t n, std::size_t capacity_bytes = 1 << 22);

/// Splits [0, total) into `lanes` contiguous parts; part i is what lane i
/// carries. Returns (offset, length) per lane.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> stripe(
    std::size_t total, std::size_t lanes);

/// Client side: stripes `data` across the lanes with one thread per lane.
/// Charges `profile` TX cost scaled by 1/lanes (the threads overlap) plus
/// one wire traversal. Returns false when a lane failed (e.g. was shut
/// under a blocked send).
bool send_striped(TransferLanes& lanes, std::span<const std::uint8_t> data,
                  const vnet::NetworkProfile& profile, sim::SimClock& clock);

/// Client side: receives a stripe sent by `scatter_striped`. Returns false
/// when a lane failed or `cancel` was raised while a lane waited for data
/// (lanes are polled through set_recv_timeout).
bool recv_striped(TransferLanes& lanes, std::span<std::uint8_t> out,
                  const vnet::NetworkProfile& profile, sim::SimClock& clock,
                  const std::atomic<bool>& cancel);

/// Server side: gathers a striped payload (no cost charging — the server's
/// native stack cost is folded into the client-side aggregate). Returns
/// false when a lane failed (e.g. the client closed it mid-stripe); `out`
/// is then only partly written.
bool gather_striped(TransferLanes& lanes, std::span<std::uint8_t> out);

/// Server side: stripes a payload toward the client. Returns false when a
/// lane failed.
bool scatter_striped(TransferLanes& lanes,
                     std::span<const std::uint8_t> data);

}  // namespace cricket::core
