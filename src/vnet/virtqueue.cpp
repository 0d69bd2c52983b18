#include "vnet/virtqueue.hpp"

#include <algorithm>
#include <cstring>

namespace cricket::vnet {

std::uint32_t VirtqChain::readable_len() const noexcept {
  std::uint32_t n = 0;
  for (const auto& d : descs)
    if (!(d.flags & kDescWrite)) n += d.len;
  return n;
}

std::uint32_t VirtqChain::writable_len() const noexcept {
  std::uint32_t n = 0;
  for (const auto& d : descs)
    if (d.flags & kDescWrite) n += d.len;
  return n;
}

Virtqueue::Virtqueue(GuestMemory& memory, std::uint16_t queue_size)
    : memory_(&memory), queue_size_(queue_size), desc_table_(queue_size) {
  if (queue_size == 0 || (queue_size & (queue_size - 1)) != 0)
    throw VirtqError("queue size must be a power of two");
  if (memory.size() / queue_size == 0)
    throw VirtqError("guest memory too small for queue");
  free_list_.reserve(queue_size);
  for (std::uint16_t i = 0; i < queue_size; ++i)
    free_list_.push_back(static_cast<std::uint16_t>(queue_size - 1 - i));
}

std::uint16_t Virtqueue::alloc_desc_locked() {
  if (free_list_.empty()) throw VirtqError("descriptor table exhausted");
  const std::uint16_t id = free_list_.back();
  free_list_.pop_back();
  return id;
}

void Virtqueue::free_chain_locked(std::uint16_t head) {
  std::uint16_t cur = head;
  for (;;) {
    const VirtqDesc d = desc_table_[cur];
    free_list_.push_back(cur);
    if (!(d.flags & kDescNext)) break;
    cur = d.next;
  }
}

VirtqChain Virtqueue::resolve_chain_locked(std::uint16_t head) const {
  VirtqChain chain;
  chain.head = head;
  std::uint16_t cur = head;
  for (std::size_t guard = 0; guard <= queue_size_; ++guard) {
    const VirtqDesc d = desc_table_[cur];
    chain.descs.push_back(d);
    if (!(d.flags & kDescNext)) return chain;
    cur = d.next;
  }
  throw VirtqError("descriptor chain loop");
}

std::optional<std::uint16_t> Virtqueue::add_chain(
    std::span<const std::span<const std::uint8_t>> out,
    std::span<const std::uint32_t> in_lens) {
  const std::size_t needed = out.size() + in_lens.size();
  if (needed == 0) throw VirtqError("empty descriptor chain");

  sim::MutexLock lock(mu_);
  if (free_list_.size() < needed) return std::nullopt;

  const std::uint64_t slot = memory_->size() / queue_size_;
  std::vector<std::uint16_t> ids;
  ids.reserve(needed);
  for (std::size_t i = 0; i < needed; ++i) ids.push_back(alloc_desc_locked());

  std::size_t idx = 0;
  for (const auto& buf : out) {
    if (buf.size() > slot) throw VirtqError("buffer exceeds descriptor slot");
    const std::uint16_t id = ids[idx];
    VirtqDesc& d = desc_table_[id];
    d.addr = static_cast<std::uint64_t>(id) * slot;
    d.len = static_cast<std::uint32_t>(buf.size());
    d.flags = idx + 1 < needed ? kDescNext : 0;
    d.next = idx + 1 < needed ? ids[idx + 1] : 0;
    auto dst = memory_->at(d.addr, d.len);
    std::copy(buf.begin(), buf.end(), dst.begin());
    ++idx;
  }
  for (const auto len : in_lens) {
    if (len > slot) throw VirtqError("buffer exceeds descriptor slot");
    const std::uint16_t id = ids[idx];
    VirtqDesc& d = desc_table_[id];
    d.addr = static_cast<std::uint64_t>(id) * slot;
    d.len = len;
    d.flags = static_cast<std::uint16_t>(
        kDescWrite | (idx + 1 < needed ? kDescNext : 0));
    d.next = idx + 1 < needed ? ids[idx + 1] : 0;
    ++idx;
  }
  return ids.front();
}

std::optional<std::pair<std::uint16_t, std::span<std::uint8_t>>>
Virtqueue::add_buffer(std::uint32_t len) {
  const std::uint64_t slot = memory_->size() / queue_size_;
  if (len > slot) throw VirtqError("buffer exceeds descriptor slot");
  sim::MutexLock lock(mu_);
  if (free_list_.empty()) return std::nullopt;
  const std::uint16_t id = alloc_desc_locked();
  VirtqDesc& d = desc_table_[id];
  d.addr = static_cast<std::uint64_t>(id) * slot;
  d.len = len;
  d.flags = 0;
  d.next = 0;
  return std::pair{id, memory_->at(d.addr, d.len)};
}

void Virtqueue::kick(std::uint16_t head) {
  sim::MutexLock lock(mu_);
  avail_ring_.push_back(head);
  ++kick_count_;
}

std::optional<VirtqChain> Virtqueue::pop_avail() {
  sim::MutexLock lock(mu_);
  if (avail_ring_.empty()) return std::nullopt;
  const std::uint16_t head = avail_ring_.front();
  avail_ring_.erase(avail_ring_.begin());
  return resolve_chain_locked(head);
}

std::vector<std::uint8_t> Virtqueue::gather(const VirtqChain& chain) {
  std::vector<std::uint8_t> out;
  out.reserve(chain.readable_len());
  sim::MutexLock lock(mu_);
  for (const auto& d : chain.descs) {
    if (d.flags & kDescWrite) continue;
    const auto src = memory_->at(d.addr, d.len);
    out.insert(out.end(), src.begin(), src.end());
  }
  return out;
}

std::span<const std::uint8_t> Virtqueue::view_readable(
    const VirtqChain& chain) {
  const VirtqDesc* readable = nullptr;
  for (const auto& d : chain.descs) {
    if (d.flags & kDescWrite) continue;
    if (readable) throw VirtqError("readable part spans descriptors");
    readable = &d;
  }
  if (!readable) return {};
  return memory_->at(readable->addr, readable->len);
}

std::span<std::uint8_t> Virtqueue::view_writable(const VirtqChain& chain) {
  for (const auto& d : chain.descs)
    if (d.flags & kDescWrite) return memory_->at(d.addr, d.len);
  return {};
}

std::uint32_t Virtqueue::scatter(const VirtqChain& chain,
                                 std::span<const std::uint8_t> data) {
  std::size_t off = 0;
  sim::MutexLock lock(mu_);
  for (const auto& d : chain.descs) {
    if (!(d.flags & kDescWrite)) continue;
    const std::size_t n = std::min<std::size_t>(d.len, data.size() - off);
    if (n == 0) break;
    auto dst = memory_->at(d.addr, static_cast<std::uint32_t>(n));
    std::memcpy(dst.data(), data.data() + off, n);
    off += n;
  }
  return static_cast<std::uint32_t>(off);
}

void Virtqueue::push_used(std::uint16_t head, std::uint32_t written) {
  sim::MutexLock lock(mu_);
  used_ring_.emplace_back(head, written);
  ++interrupt_count_;
}

std::optional<std::pair<std::uint16_t, std::uint32_t>>
Virtqueue::take_used() {
  sim::MutexLock lock(mu_);
  if (used_ring_.empty()) return std::nullopt;
  const auto entry = used_ring_.front();
  used_ring_.erase(used_ring_.begin());
  return entry;
}

std::vector<std::uint8_t> Virtqueue::read_in_buffers(std::uint16_t head,
                                                     std::uint32_t written) {
  sim::MutexLock lock(mu_);
  const VirtqChain chain = resolve_chain_locked(head);
  std::vector<std::uint8_t> out;
  out.reserve(written);
  std::uint32_t remaining = written;
  for (const auto& d : chain.descs) {
    if (!(d.flags & kDescWrite) || remaining == 0) continue;
    const std::uint32_t n = std::min(d.len, remaining);
    const auto src = memory_->at(d.addr, n);
    out.insert(out.end(), src.begin(), src.end());
    remaining -= n;
  }
  free_chain_locked(head);
  return out;
}

std::span<const std::uint8_t> Virtqueue::view_in_buffer(
    std::uint16_t head, std::uint32_t written) {
  sim::MutexLock lock(mu_);
  std::uint16_t cur = head;
  for (std::size_t guard = 0; guard <= queue_size_; ++guard) {
    const VirtqDesc& d = desc_table_[cur];
    if (d.flags & kDescWrite) {
      if (written > d.len) throw VirtqError("written part spans descriptors");
      return memory_->at(d.addr, written);
    }
    if (!(d.flags & kDescNext)) throw VirtqError("no device-writable buffer");
    cur = d.next;
  }
  throw VirtqError("descriptor chain loop");
}

void Virtqueue::recycle(std::uint16_t head) {
  sim::MutexLock lock(mu_);
  free_chain_locked(head);
}

std::uint64_t Virtqueue::kicks() const noexcept {
  sim::MutexLock lock(mu_);
  return kick_count_;
}

std::uint64_t Virtqueue::interrupts() const noexcept {
  sim::MutexLock lock(mu_);
  return interrupt_count_;
}

}  // namespace cricket::vnet
