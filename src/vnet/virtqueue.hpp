// Split virtqueue (virtio 1.x "split ring") implementation.
//
// RustyHermit and Unikraft reach the host network through virtio-net queues
// (paper §3.1/§4: "a TAP device using virtio for network virtualization").
// This is a faithful split-ring model: a descriptor table whose entries
// address a guest memory arena, an available ring the driver fills, and a
// used ring the device fills. Notifications ("kicks" guest→device and
// "interrupts" device→guest) are counted; nothing waits on them.
// VirtioNetTransport runs both sides of each ring on the guest's calling
// thread and polls. The cost model charges VM-exit time per kick at a
// higher layer.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "sim/annotations.hpp"

namespace cricket::vnet {

class VirtqError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Flat guest-physical memory arena descriptors point into.
class GuestMemory {
 public:
  explicit GuestMemory(std::size_t size) : mem_(size) {}

  [[nodiscard]] std::span<std::uint8_t> at(std::uint64_t addr,
                                           std::uint32_t len) {
    if (addr + len > mem_.size())
      throw VirtqError("descriptor addresses outside guest memory");
    return {mem_.data() + addr, len};
  }
  [[nodiscard]] std::size_t size() const noexcept { return mem_.size(); }

 private:
  std::vector<std::uint8_t> mem_;
};

/// Virtio descriptor flags.
constexpr std::uint16_t kDescNext = 1;   // chained to `next`
constexpr std::uint16_t kDescWrite = 2;  // device-writable (RX buffer)

struct VirtqDesc {
  std::uint64_t addr = 0;
  std::uint32_t len = 0;
  std::uint16_t flags = 0;
  std::uint16_t next = 0;
};

/// One element the device popped from the available ring: the head index
/// plus the resolved descriptor chain.
struct VirtqChain {
  std::uint16_t head = 0;
  std::vector<VirtqDesc> descs;

  /// Total length of device-readable / device-writable parts.
  [[nodiscard]] std::uint32_t readable_len() const noexcept;
  [[nodiscard]] std::uint32_t writable_len() const noexcept;
};

/// A single split virtqueue. The driver side and device side may run on
/// different threads; all state is protected by one mutex.
class Virtqueue {
 public:
  Virtqueue(GuestMemory& memory, std::uint16_t queue_size);

  // ------------------------------ driver side ----------------------------
  /// Allocates descriptors for a chain: `out` spans are device-readable
  /// (copied into guest memory), `in_lens` are device-writable buffer sizes.
  /// Returns the head descriptor index, or nullopt if the table is full.
  std::optional<std::uint16_t> add_chain(
      std::span<const std::span<const std::uint8_t>> out,
      std::span<const std::uint32_t> in_lens) CRICKET_EXCLUDES(mu_);

  /// add_chain() of one device-readable buffer of `len` bytes that the
  /// driver fills in place, before kick(): returns its head and its guest
  /// memory, or nullopt if the table is full.
  std::optional<std::pair<std::uint16_t, std::span<std::uint8_t>>>
  add_buffer(std::uint32_t len) CRICKET_EXCLUDES(mu_);

  /// Exposes the chain on the available ring and notifies the device.
  void kick(std::uint16_t head) CRICKET_EXCLUDES(mu_);

  /// Completed chain from the used ring: (head, bytes written by device),
  /// or nullopt if none is pending.
  std::optional<std::pair<std::uint16_t, std::uint32_t>> take_used()
      CRICKET_EXCLUDES(mu_);

  /// Reads back a device-written ("in") buffer of a completed chain and
  /// frees the chain's descriptors.
  [[nodiscard]] std::vector<std::uint8_t> read_in_buffers(
      std::uint16_t head, std::uint32_t written) CRICKET_EXCLUDES(mu_);
  /// A completed chain's device-written bytes in place, where
  /// read_in_buffers() copies them out. The device must have written them
  /// into the chain's first device-writable descriptor. The view stays
  /// valid until recycle(head).
  [[nodiscard]] std::span<const std::uint8_t> view_in_buffer(
      std::uint16_t head, std::uint32_t written) CRICKET_EXCLUDES(mu_);
  /// Frees a chain's descriptors without reading (TX completion).
  void recycle(std::uint16_t head) CRICKET_EXCLUDES(mu_);

  // ------------------------------ device side ----------------------------
  /// Next available chain, or nullopt when the ring is empty.
  std::optional<VirtqChain> pop_avail() CRICKET_EXCLUDES(mu_);

  /// Copies device-readable chain content out of guest memory.
  [[nodiscard]] std::vector<std::uint8_t> gather(const VirtqChain& chain)
      CRICKET_EXCLUDES(mu_);
  /// The device-readable content in place, where gather() copies it. The
  /// chain must hold it in one descriptor; the view stays valid until the
  /// driver recycles the chain.
  [[nodiscard]] std::span<const std::uint8_t> view_readable(
      const VirtqChain& chain);
  /// The chain's first device-writable buffer in place, for the device to
  /// fill where scatter() copies. Valid until the driver recycles the chain.
  [[nodiscard]] std::span<std::uint8_t> view_writable(const VirtqChain& chain);
  /// Scatters `data` into the chain's device-writable buffers; returns bytes
  /// written (trailing data is truncated if the chain is too small).
  std::uint32_t scatter(const VirtqChain& chain,
                        std::span<const std::uint8_t> data)
      CRICKET_EXCLUDES(mu_);
  /// Marks the chain used and notifies the driver.
  void push_used(std::uint16_t head, std::uint32_t written)
      CRICKET_EXCLUDES(mu_);

  [[nodiscard]] std::uint16_t queue_size() const noexcept {
    return queue_size_;
  }
  [[nodiscard]] std::uint64_t kicks() const noexcept CRICKET_EXCLUDES(mu_);
  [[nodiscard]] std::uint64_t interrupts() const noexcept
      CRICKET_EXCLUDES(mu_);

 private:
  std::uint16_t alloc_desc_locked() CRICKET_REQUIRES(mu_);
  void free_chain_locked(std::uint16_t head) CRICKET_REQUIRES(mu_);
  VirtqChain resolve_chain_locked(std::uint16_t head) const
      CRICKET_REQUIRES(mu_);

  GuestMemory* memory_;
  std::uint16_t queue_size_;
  std::vector<VirtqDesc> desc_table_ CRICKET_GUARDED_BY(mu_);
  // FIFO of heads.
  std::vector<std::uint16_t> avail_ring_ CRICKET_GUARDED_BY(mu_);
  std::vector<std::pair<std::uint16_t, std::uint32_t>> used_ring_
      CRICKET_GUARDED_BY(mu_);
  std::vector<std::uint16_t> free_list_ CRICKET_GUARDED_BY(mu_);

  mutable sim::Mutex mu_;
  std::uint64_t kick_count_ CRICKET_GUARDED_BY(mu_) = 0;
  std::uint64_t interrupt_count_ CRICKET_GUARDED_BY(mu_) = 0;
};

}  // namespace cricket::vnet
