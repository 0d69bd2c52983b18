// Simulated device memory manager.
//
// Allocations get addresses in a synthetic device VA range; the backing
// storage is host memory. The manager enforces the properties the paper's
// RPC-Lib client guarantees through Rust lifetimes (§3.4: "we can guarantee
// the absence of use-after-free and double-free errors for the CUDA
// allocation API") — here they are runtime-checked: freeing twice, or
// touching memory outside a live allocation, throws.
//
// Backing store: one anonymous MAP_NORESERVE mapping of `capacity` bytes
// (the arena); device address `base + off` is host byte `arena + off`.
// Like a real cudaMalloc, allocating touches no memory: only pages that are
// written are ever faulted in.
//
// Zero invariant: every byte of every free hole reads as zero. A fresh
// mapping starts that way and free() restores it — MADV_DONTNEED on the
// whole pages of the freed range, memset on a partial head or tail page
// (which a live neighbour may share). So a new allocation reads as zeros
// without being written.
//
// Under AddressSanitizer each allocation's pad tail [size, padded) and
// every freed range are poisoned, so a stray access past `size` is still
// caught although allocations no longer are separate heap blocks. The
// arena is not poisoned up front: that would cost 1/8 of its size in
// shadow memory.
//
// Limit: GCC 12's ThreadSanitizer runtime allows about 86 reservations of
// 40 GiB per process (about 35 paper-testbed nodes alive at once).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <vector>

#include "sim/annotations.hpp"
#include "xdr/taint.hpp"

namespace cricket::gpusim {

/// Device pointer: an address in the simulated device VA space. 0 is null.
using DevPtr = std::uint64_t;

class MemoryError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class OutOfMemory : public MemoryError {
 public:
  using MemoryError::MemoryError;
};

/// Thread-safe simulated device heap with a coalescing first-fit free list.
class MemoryManager {
 public:
  /// `capacity` is the device memory size; addresses start at `base`.
  explicit MemoryManager(std::uint64_t capacity,
                         DevPtr base = 0x0007'0000'0000'0000ULL);
  ~MemoryManager();

  MemoryManager(const MemoryManager&) = delete;
  MemoryManager& operator=(const MemoryManager&) = delete;

  /// Allocates `size` bytes (rounded up to 256-byte granularity, like the
  /// CUDA allocator). Throws OutOfMemory when it does not fit.
  [[nodiscard]] DevPtr allocate(std::uint64_t size) CRICKET_EXCLUDES(mu_);

  /// Places an allocation at an exact device address (checkpoint restore:
  /// client-held pointers must stay valid). Throws MemoryError if the range
  /// is not entirely inside one free hole.
  void allocate_at(DevPtr ptr, std::uint64_t size) CRICKET_EXCLUDES(mu_);

  /// Whether allocate_at(ptr, size) would succeed right now — the same
  /// checks, mutation-free. Lets restore_merge validate a whole batch of
  /// placements before committing to any of them.
  [[nodiscard]] bool can_allocate_at(DevPtr ptr, std::uint64_t size) const
      noexcept CRICKET_EXCLUDES(mu_);

  /// Wiretaint seam: can_allocate_at for wire-derived placement records
  /// (checkpoint restore, migration images). The scalars leave the taint
  /// domain only after proving they fit the device address space; anything
  /// implausible is simply "no".
  [[nodiscard]] bool can_allocate_at_validated(
      xdr::Untrusted<DevPtr> ptr, xdr::Untrusted<std::uint64_t> size) const
      noexcept CRICKET_EXCLUDES(mu_);

  /// Frees an allocation; `ptr` must be the exact value returned by
  /// allocate. Double-free or a bogus pointer throws MemoryError.
  void free(DevPtr ptr) CRICKET_EXCLUDES(mu_);

  /// Resolves [ptr, ptr+len) to backing storage; the range must lie inside
  /// one live allocation (CUDA forbids cross-allocation arithmetic too).
  [[nodiscard]] std::span<std::uint8_t> resolve(DevPtr ptr, std::uint64_t len)
      CRICKET_EXCLUDES(mu_);
  [[nodiscard]] std::span<const std::uint8_t> resolve(DevPtr ptr,
                                                      std::uint64_t len) const
      CRICKET_EXCLUDES(mu_);

  /// Wiretaint seam: resolve with a wire-derived length. A length no
  /// allocation could ever satisfy (> capacity) is refused as MemoryError
  /// before resolve() runs, so the caller keeps its in-band error code.
  [[nodiscard]] std::span<std::uint8_t> resolve_validated(
      DevPtr ptr, xdr::Untrusted<std::uint64_t> len) CRICKET_EXCLUDES(mu_);

  void memset(DevPtr ptr, int value, std::uint64_t len) CRICKET_EXCLUDES(mu_);

  /// Wiretaint seam: memset with a wire-derived length (see
  /// resolve_validated for the refusal contract).
  void memset_validated(DevPtr ptr, int value,
                        xdr::Untrusted<std::uint64_t> len)
      CRICKET_EXCLUDES(mu_);

  [[nodiscard]] std::uint64_t bytes_in_use() const noexcept
      CRICKET_EXCLUDES(mu_);
  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t allocation_count() const noexcept
      CRICKET_EXCLUDES(mu_);

  /// Enumerates live allocations (pointer, size) — used by checkpoint.
  [[nodiscard]] std::vector<std::pair<DevPtr, std::uint64_t>> live() const
      CRICKET_EXCLUDES(mu_);

  static constexpr std::uint64_t kGranularity = 256;

 private:
  struct Allocation {
    std::uint64_t size;          // requested size
    std::uint64_t padded_size;   // rounded to granularity
  };

  [[nodiscard]] std::uint8_t* host(DevPtr addr) const noexcept {
    return arena_ + (addr - base_);
  }
  /// Bookkeeping shared by allocate and allocate_at once `addr` is carved
  /// out of a hole: record it, unpoison [addr, addr + size) and poison the
  /// pad tail (ASan builds only).
  void commit(DevPtr addr, std::uint64_t size, std::uint64_t padded)
      CRICKET_REQUIRES(mu_);

  // Both maps are keyed by device address. free_ maps start -> length of a
  // free hole; coalescing happens on free().
  mutable sim::Mutex mu_;
  std::map<DevPtr, Allocation> allocs_ CRICKET_GUARDED_BY(mu_);
  std::map<DevPtr, std::uint64_t> free_ CRICKET_GUARDED_BY(mu_);
  std::uint64_t capacity_;
  std::uint64_t in_use_ CRICKET_GUARDED_BY(mu_) = 0;
  DevPtr base_;
  std::size_t arena_len_;  // capacity rounded up to whole pages
  std::uint8_t* arena_;
};

}  // namespace cricket::gpusim
