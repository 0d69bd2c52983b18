#include "gpusim/memory.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <system_error>

#include <sanitizer/asan_interface.h>  // its macros are no-ops without ASan

namespace cricket::gpusim {

namespace {

std::uint64_t page_size() noexcept {
  static const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

std::uint8_t* map_arena(std::size_t len) {
  void* p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED)
    throw std::system_error(errno, std::generic_category(),
                            "mmap of the device memory arena");
  return static_cast<std::uint8_t*>(p);
}

}  // namespace

MemoryManager::MemoryManager(std::uint64_t capacity, DevPtr base)
    : capacity_(capacity),
      base_(base),
      arena_len_((std::max<std::uint64_t>(capacity, 1) + page_size() - 1) /
                 page_size() * page_size()),
      arena_(map_arena(arena_len_)) {
  free_.emplace(base_, capacity_);
}

MemoryManager::~MemoryManager() { ::munmap(arena_, arena_len_); }

void MemoryManager::commit(DevPtr addr, std::uint64_t size,
                           std::uint64_t padded) {
  allocs_.emplace(addr, Allocation{size, padded});
  in_use_ += padded;
  ASAN_UNPOISON_MEMORY_REGION(host(addr), size);
  ASAN_POISON_MEMORY_REGION(host(addr) + size, padded - size);
}

DevPtr MemoryManager::allocate(std::uint64_t size) {
  if (size == 0) throw MemoryError("zero-byte device allocation");
  // Checked before the round-up: a size near UINT64_MAX would wrap the
  // granularity arithmetic to a tiny padded size and corrupt accounting.
  if (size > capacity_) throw OutOfMemory("device out of memory");
  const std::uint64_t padded =
      (size + kGranularity - 1) / kGranularity * kGranularity;
  sim::MutexLock lock(mu_);
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    if (it->second < padded) continue;
    const DevPtr addr = it->first;
    const std::uint64_t hole = it->second;
    free_.erase(it);
    if (hole > padded) free_.emplace(addr + padded, hole - padded);
    commit(addr, size, padded);
    return addr;
  }
  throw OutOfMemory("device out of memory");
}

void MemoryManager::allocate_at(DevPtr ptr, std::uint64_t size) {
  if (size == 0) throw MemoryError("zero-byte device allocation");
  if (size > capacity_) throw OutOfMemory("device out of memory");
  const std::uint64_t padded =
      (size + kGranularity - 1) / kGranularity * kGranularity;
  sim::MutexLock lock(mu_);
  // Find the free hole containing [ptr, ptr + padded).
  auto it = free_.upper_bound(ptr);
  if (it == free_.begin()) throw MemoryError("address not in a free hole");
  --it;
  const DevPtr hole_start = it->first;
  const std::uint64_t hole_len = it->second;
  // Overflow-safe form of `ptr + padded > hole_start + hole_len`: a
  // restore image placing an allocation near the top of the address space
  // must not wrap the end computation past the check.
  if (ptr < hole_start || ptr - hole_start > hole_len ||
      padded > hole_len - (ptr - hole_start))
    throw MemoryError("address range not entirely free");
  free_.erase(it);
  if (ptr > hole_start) free_.emplace(hole_start, ptr - hole_start);
  const std::uint64_t tail = hole_start + hole_len - (ptr + padded);
  if (tail > 0) free_.emplace(ptr + padded, tail);
  commit(ptr, size, padded);
}

bool MemoryManager::can_allocate_at(DevPtr ptr, std::uint64_t size) const
    noexcept {
  if (size == 0 || size > capacity_) return false;
  const std::uint64_t padded =
      (size + kGranularity - 1) / kGranularity * kGranularity;
  sim::MutexLock lock(mu_);
  auto it = free_.upper_bound(ptr);
  if (it == free_.begin()) return false;
  --it;
  return ptr >= it->first && ptr - it->first <= it->second &&
         padded <= it->second - (ptr - it->first);
}

bool MemoryManager::can_allocate_at_validated(
    xdr::Untrusted<DevPtr> ptr, xdr::Untrusted<std::uint64_t> size) const
    noexcept {
  // Wire-derived placement: both scalars leave the taint domain only after
  // proving they describe a range the device address space can even hold.
  DevPtr p = 0;
  std::uint64_t s = 0;
  if (!ptr.try_validate(base_ + capacity_ - 1, p)) return false;
  if (!size.try_validate(capacity_, s)) return false;
  return can_allocate_at(p, s);
}

void MemoryManager::free(DevPtr ptr) {
  sim::MutexLock lock(mu_);
  const auto it = allocs_.find(ptr);
  if (it == allocs_.end())
    throw MemoryError("free of invalid or already-freed device pointer");
  std::uint64_t start = ptr;
  std::uint64_t len = it->second.padded_size;
  in_use_ -= len;
  allocs_.erase(it);

  // Restore the zero invariant before the range rejoins a hole: hand whole
  // pages back to the kernel (they read as zeros again) and clear only the
  // partial pages at either end, whose other bytes may belong to a live
  // neighbour. Offsets are arena-relative; the arena is page-aligned.
  const std::uint64_t page = page_size();
  const std::uint64_t lo = start - base_;
  const std::uint64_t hi = lo + len;
  const std::uint64_t first = std::min((lo + page - 1) / page * page, hi);
  const std::uint64_t last = std::max(first, hi / page * page);
  ASAN_UNPOISON_MEMORY_REGION(arena_ + lo, len);  // the pad tail, for memset
  std::memset(arena_ + lo, 0, first - lo);
  if (last > first &&
      ::madvise(arena_ + first, last - first, MADV_DONTNEED) != 0)
    std::memset(arena_ + first, 0, last - first);  // e.g. mlock'ed pages
  std::memset(arena_ + last, 0, hi - last);
  ASAN_POISON_MEMORY_REGION(arena_ + lo, len);

  // Coalesce with successor hole.
  const auto next = free_.lower_bound(start);
  if (next != free_.end() && next->first == start + len) {
    len += next->second;
    free_.erase(next);
  }
  // Coalesce with predecessor hole.
  const auto succ = free_.lower_bound(start);
  if (succ != free_.begin()) {
    const auto prev = std::prev(succ);
    if (prev->first + prev->second == start) {
      start = prev->first;
      len += prev->second;
      free_.erase(prev);
    }
  }
  free_.emplace(start, len);
}

std::span<std::uint8_t> MemoryManager::resolve(DevPtr ptr, std::uint64_t len) {
  sim::MutexLock lock(mu_);
  auto it = allocs_.upper_bound(ptr);
  if (it == allocs_.begin())
    throw MemoryError("device pointer outside any allocation");
  --it;
  const std::uint64_t off = ptr - it->first;
  // Overflow-safe form of `off + len > size`: a hostile length near
  // UINT64_MAX must not wrap the sum below the bound and hand out a span
  // far beyond the backing storage.
  if (off > it->second.size || len > it->second.size - off)
    throw MemoryError("device access beyond allocation bounds");
  return {host(it->first) + off, len};
}

std::span<std::uint8_t> MemoryManager::resolve_validated(
    DevPtr ptr, xdr::Untrusted<std::uint64_t> len) {
  std::uint64_t l = 0;
  if (!len.try_validate(capacity_, l))
    throw MemoryError("wire-declared length exceeds device capacity");
  return resolve(ptr, l);
}

std::span<const std::uint8_t> MemoryManager::resolve(DevPtr ptr,
                                                     std::uint64_t len) const {
  return const_cast<MemoryManager*>(this)->resolve(ptr, len);
}

void MemoryManager::memset(DevPtr ptr, int value, std::uint64_t len) {
  const auto span = resolve(ptr, len);
  std::memset(span.data(), value, span.size());
}

void MemoryManager::memset_validated(DevPtr ptr, int value,
                                     xdr::Untrusted<std::uint64_t> len) {
  const auto span = resolve_validated(ptr, len);
  std::memset(span.data(), value, span.size());
}

std::uint64_t MemoryManager::bytes_in_use() const noexcept {
  sim::MutexLock lock(mu_);
  return in_use_;
}

std::size_t MemoryManager::allocation_count() const noexcept {
  sim::MutexLock lock(mu_);
  return allocs_.size();
}

std::vector<std::pair<DevPtr, std::uint64_t>> MemoryManager::live() const {
  sim::MutexLock lock(mu_);
  std::vector<std::pair<DevPtr, std::uint64_t>> out;
  out.reserve(allocs_.size());
  for (const auto& [addr, a] : allocs_) out.emplace_back(addr, a.size);
  return out;
}

}  // namespace cricket::gpusim
