#include "rpc/batcher.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cricket::rpc {

CallBatcher::CallBatcher(Transport& transport, Options options)
    : transport_(&transport), options_(options) {
  if (options_.enabled && options_.deadline.count() > 0)
    flusher_ = std::thread([this] { deadline_loop(); });
}

CallBatcher::~CallBatcher() {
  {
    sim::MutexLock lock(mu_);
    stopping_ = true;
    // Best effort: don't strand buffered calls whose futures are pending.
    if (!buf_.empty() && !failed_) {
      try {
        flush_locked(Cause::kExplicit);
      } catch (const TransportError&) {
        // The client's reader fails the pending futures.
      }
    }
  }
  cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
}

void CallBatcher::append(std::span<const std::uint8_t> record) {
  sim::MutexLock lock(mu_);
  if (failed_) throw TransportError("batcher transport already failed");
  append_record_marked(buf_, record);
  ++stats_.records;
  if (++buffered_calls_ == 1) {
    oldest_ = std::chrono::steady_clock::now();
    cv_.notify_all();  // arm the deadline flusher
  }
  if (!options_.enabled || buffered_calls_ >= options_.max_calls ||
      buf_.size() >= options_.max_bytes) {
    flush_locked(options_.enabled ? Cause::kFull : Cause::kExplicit);
  }
}

void CallBatcher::flush() {
  sim::MutexLock lock(mu_);
  if (buf_.empty()) return;
  if (failed_) throw TransportError("batcher transport already failed");
  flush_locked(Cause::kExplicit);
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

void CallBatcher::flush_locked(Cause cause) {
  // Flush-cause counters live in the global registry (static refs: the
  // registry hands out stable pointers and is never destroyed).
  static obs::Counter& flush_full = obs::Registry::global().counter(
      "cricket_batch_flushes_total", {{"cause", "full"}},
      "Batcher flushes by trigger");
  static obs::Counter& flush_deadline = obs::Registry::global().counter(
      "cricket_batch_flushes_total", {{"cause", "deadline"}});
  static obs::Counter& flush_explicit = obs::Registry::global().counter(
      "cricket_batch_flushes_total", {{"cause", "explicit"}});
  switch (cause) {
    case Cause::kFull:
      ++stats_.flush_full;
      flush_full.inc();
      break;
    case Cause::kDeadline:
      ++stats_.flush_deadline;
      flush_deadline.inc();
      break;
    case Cause::kExplicit:
      ++stats_.flush_explicit;
      flush_explicit.inc();
      break;
  }
  ++stats_.batches;
  stats_.bytes += buf_.size();
  buffered_calls_ = 0;
  // Send under the lock: the transport allows only one concurrent sender,
  // and the lock is what serializes appenders with the deadline flusher.
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

void CallBatcher::deadline_loop() {
  sim::MutexLock lock(mu_);
  for (;;) {
    while (!stopping_ && buffered_calls_ == 0) cv_.wait(mu_);
    if (stopping_) return;
    const auto wake = oldest_ + options_.deadline;
    while (!stopping_ && buffered_calls_ > 0 &&
           std::chrono::steady_clock::now() < wake) {
      if (cv_.wait_until(mu_, wake) == std::cv_status::timeout) break;
    }
    if (stopping_) return;
    if (buffered_calls_ > 0 &&
        std::chrono::steady_clock::now() >= oldest_ + options_.deadline &&
        !failed_) {
      try {
        flush_locked(Cause::kDeadline);
      } catch (const TransportError&) {
        // Reader loop surfaces the failure to the pending futures.
      }
    }
  }
}

}  // namespace cricket::rpc
