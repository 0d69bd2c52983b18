#include "rpc/batcher.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cricket::rpc {

CallBatcher::~CallBatcher() {
  sim::MutexLock lock(mu_);
  // Best effort: don't strand buffered calls whose futures are pending.
  if (buf_.empty() || failed_) return;
  try {
    flush_locked(/*full=*/false);
  } catch (const TransportError&) {
    // The client fails the pending futures.
  }
}

void CallBatcher::append(std::span<const std::uint8_t> record) {
  sim::MutexLock lock(mu_);
  if (failed_) throw TransportError("batcher transport already failed");
  append_record_marked(buf_, record);
  ++stats_.records;
  ++buffered_calls_;
  if (!options_.enabled || buffered_calls_ >= options_.max_calls ||
      buf_.size() >= options_.max_bytes) {
    flush_locked(/*full=*/options_.enabled);
  }
}

void CallBatcher::flush() {
  sim::MutexLock lock(mu_);
  if (buf_.empty()) return;
  if (failed_) throw TransportError("batcher transport already failed");
  flush_locked(/*full=*/false);
}

void CallBatcher::rebind(Transport& transport) {
  sim::MutexLock lock(mu_);
  transport_ = &transport;
  failed_ = false;
  buf_.clear();
  buffered_calls_ = 0;
}

CallBatcher::Stats CallBatcher::stats() const {
  sim::MutexLock lock(mu_);
  return stats_;
}

std::uint32_t CallBatcher::buffered() const {
  sim::MutexLock lock(mu_);
  return buffered_calls_;
}

void CallBatcher::flush_locked(bool full) {
  // Flush-cause counters live in the global registry (static refs: the
  // registry hands out stable pointers and is never destroyed).
  static obs::Counter& flush_full = obs::Registry::global().counter(
      "cricket_batch_flushes_total", {{"cause", "full"}},
      "Batcher flushes by trigger");
  static obs::Counter& flush_explicit = obs::Registry::global().counter(
      "cricket_batch_flushes_total", {{"cause", "explicit"}});
  if (full) {
    ++stats_.flush_full;
    flush_full.inc();
  } else {
    ++stats_.flush_explicit;
    flush_explicit.inc();
  }
  ++stats_.batches;
  stats_.bytes += buf_.size();
  buffered_calls_ = 0;
  // Send under the lock: the transport allows only one concurrent sender,
  // and the lock is what serializes the appending threads.
  obs::Span span(obs::Layer::kChanFlush, nullptr, buf_.size());
  try {
    transport_->send(buf_);
  } catch (const TransportError&) {
    failed_ = true;
    buf_.clear();
    throw;
  }
  buf_.clear();
}

}  // namespace cricket::rpc
