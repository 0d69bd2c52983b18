// Virtio-net guest transport and the cost-charging transport decorator.
//
// VirtioNetTransport is the data path of a unikernel / Linux-VM guest
// (paper Fig. 4): application bytes are segmented into real
// Ethernet/IPv4/TCP frames (checksummed in software unless the virtio
// checksum offloads are negotiated) and pushed through a real split
// virtqueue; the host side of the queue unwraps them onto the "wire" (a
// byte queue toward the Cricket server). Receive is the mirror image, with
// MRG_RXBUF governing how many bytes arrive per posted buffer. The device
// side runs to completion on the guest's own thread: send() kicks each frame
// and then drains the TX ring itself, handing the burst to the wire in one
// push, and recv() pulls the wire and fills the RX ring itself. All guest
// CPU mechanisms additionally charge virtual time via the NetworkProfile.
//
// ShapedTransport is the light-weight variant for native (non-virtualized)
// rows: it only charges host-stack costs around an inner transport.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rpc/transport.hpp"
#include "sim/sim_clock.hpp"
#include "vnet/cost_model.hpp"
#include "vnet/virtqueue.hpp"

namespace cricket::vnet {

struct TransportStats {
  std::uint64_t frames_tx = 0;
  std::uint64_t frames_rx = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t bytes_rx = 0;
  std::uint64_t checksums_computed = 0;  // software checksum operations
};

namespace detail {

/// Per-instance counter block for VirtioNetTransport, backed by the global
/// obs registry (series `cricket_vnet_*_total{transport="vnetN",dir=...}`).
/// The transport contract allows one sender plus one receiver concurrently,
/// and both paths compute software checksums — obs::Counter's relaxed
/// atomics make the concurrent bumps and a stats() reader race-free.
struct TransportCounters {
  explicit TransportCounters(const std::string& instance);

  obs::Counter& frames_tx;
  obs::Counter& frames_rx;
  obs::Counter& bytes_tx;
  obs::Counter& bytes_rx;
  obs::Counter& checksums_tx;
  obs::Counter& checksums_rx;

  [[nodiscard]] TransportStats snapshot() const noexcept {
    TransportStats s;
    s.frames_tx = frames_tx.value();
    s.frames_rx = frames_rx.value();
    s.bytes_tx = bytes_tx.value();
    s.bytes_rx = bytes_rx.value();
    s.checksums_computed = checksums_tx.value() + checksums_rx.value();
    return s;
  }
};

}  // namespace detail

/// Charges NetworkProfile costs around an inner transport. Used for the
/// native C / native Rust rows of Table 1 (host kernel TCP, no hypervisor).
class ShapedTransport final : public rpc::Transport {
 public:
  ShapedTransport(NetworkProfile profile, sim::SimClock& clock,
                  std::unique_ptr<rpc::Transport> inner)
      : profile_(profile), clock_(&clock), inner_(std::move(inner)) {}

  void send(std::span<const std::uint8_t> data) override {
    obs::Span span(obs::Layer::kNetTx, nullptr, data.size());
    clock_->advance(tx_cpu_cost(profile_, data.size()) +
                    wire_time(profile_, data.size()));
    inner_->send(data);
  }

  std::size_t recv(std::span<std::uint8_t> out) override {
    obs::Span span(obs::Layer::kNetRx);
    const std::size_t n = inner_->recv(out);
    if (n > 0) {
      clock_->advance(rx_cpu_cost(profile_, n));
      span.set_arg(n);
    } else {
      span.cancel();  // EOF: nothing happened worth a trace slice
    }
    return n;
  }

  void shutdown() override { inner_->shutdown(); }

  bool set_recv_timeout(std::chrono::nanoseconds timeout) override {
    // Shaping charges time but does not buffer, so the inner transport's
    // timed recv (pipe or TCP) carries the deadline unchanged.
    return inner_->set_recv_timeout(timeout);
  }

 private:
  NetworkProfile profile_;
  sim::SimClock* clock_;
  std::unique_ptr<rpc::Transport> inner_;
};

/// Guest-side virtio-net transport. One instance per guest connection; owns
/// the guest memory arena and the TX/RX virtqueues, and plays both their
/// driver and device sides on the calling thread (no backend threads).
class VirtioNetTransport final : public rpc::Transport {
 public:
  VirtioNetTransport(NetworkProfile profile, sim::SimClock& clock,
                     std::shared_ptr<rpc::ByteQueue> wire_tx,
                     std::shared_ptr<rpc::ByteQueue> wire_rx);
  /// Closes both wire queues, as closing a socket does.
  ~VirtioNetTransport() override;

  VirtioNetTransport(const VirtioNetTransport&) = delete;
  VirtioNetTransport& operator=(const VirtioNetTransport&) = delete;

  void send(std::span<const std::uint8_t> data) override;
  std::size_t recv(std::span<std::uint8_t> out) override;
  void shutdown() override;
  /// recv() owns the blocking wire pop, so it bounds it directly.
  bool set_recv_timeout(std::chrono::nanoseconds timeout) override {
    recv_timeout_ns_.store(timeout.count(), std::memory_order_relaxed);
    return true;
  }

  /// Returns a snapshot copy (counters advance concurrently on the sender
  /// and receiver threads).
  [[nodiscard]] TransportStats stats() const noexcept {
    return stats_.snapshot();
  }
  [[nodiscard]] const NetworkProfile& profile() const noexcept {
    return profile_;
  }
  /// Virtqueue notification counters (kicks = VM exits on the TX path).
  [[nodiscard]] std::uint64_t tx_kicks() const noexcept { return tx_.kicks(); }
  [[nodiscard]] std::uint64_t tx_interrupts() const noexcept {
    return tx_.interrupts();
  }
  [[nodiscard]] std::uint64_t rx_kicks() const noexcept { return rx_.kicks(); }
  [[nodiscard]] std::uint64_t rx_interrupts() const noexcept {
    return rx_.interrupts();
  }

 private:
  void run_tx_device();
  void receive_chunk(std::size_t n);
  void reclaim_tx_descriptors();
  void post_rx_buffer();

  NetworkProfile profile_;
  sim::SimClock* clock_;
  std::shared_ptr<rpc::ByteQueue> wire_tx_;
  std::shared_ptr<rpc::ByteQueue> wire_rx_;

  // One arena per queue: Virtqueue maps descriptor id -> arena offset, so a
  // shared arena would alias TX frames with posted RX buffers as soon as
  // both directions are active at once (pipelined clients do this; the
  // one-call-at-a-time synchronous client never did).
  GuestMemory tx_memory_;
  GuestMemory rx_memory_;
  Virtqueue tx_;
  Virtqueue rx_;

  // Sender thread only: the guest's TCP sequence, and the device's batch
  // of kicked chains with their payloads (kept to reuse the storage).
  std::uint32_t tx_seq_ = 1;
  std::vector<std::uint16_t> tx_heads_;
  std::vector<std::span<const std::uint8_t>> tx_payloads_;
  // Receiver thread only: the host's TCP sequence, one wire pop, and the
  // unwrapped payload not yet returned (consumed up to rx_read_).
  std::uint32_t rx_seq_ = 1;
  std::vector<std::uint8_t> rx_chunk_;
  std::vector<std::uint8_t> rx_pending_;
  std::size_t rx_read_ = 0;
  detail::TransportCounters stats_;

  std::atomic<std::int64_t> recv_timeout_ns_{0};
  std::atomic<bool> stopping_{false};

  static constexpr std::uint16_t kQueueSize = 256;
  static constexpr std::size_t kHeaderRoom = 128;
};

}  // namespace cricket::vnet
