// Adaptive small-call batcher (Nagle-style, with an explicit flush escape).
//
// The Fig. 6a workload — storms of sub-100-byte calls like
// cudaGetDeviceCount — pays one full send (syscall, virtqueue kick, wire
// latency) per call on the synchronous path. The batcher coalesces
// back-to-back record-marked calls into a single transport send and flushes
// when the buffer fills (bytes or record count) or when the caller flushes.
// It owns no thread: RpcClient flushes it whenever its caller waits (a
// blocking call, a future's get(), a full window, drain()).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rpc/record.hpp"
#include "rpc/transport.hpp"
#include "sim/annotations.hpp"

namespace cricket::rpc {

class CallBatcher {
 public:
  struct Options {
    /// Disabled: every append is sent immediately (still one send per
    /// record, i.e. header+payload coalesced — no cross-call waiting).
    bool enabled = false;
    /// Flush as soon as the buffered wire bytes reach this (keep it at or
    /// under one MSS so a batch still fits one network segment).
    std::size_t max_bytes = 8 * 1024;
    /// Flush as soon as this many records are buffered.
    std::uint32_t max_calls = 16;
  };

  struct Stats {
    std::uint64_t records = 0;
    std::uint64_t batches = 0;  // transport sends
    std::uint64_t flush_full = 0;
    std::uint64_t flush_explicit = 0;
    std::uint64_t bytes = 0;
  };

  CallBatcher(Transport& transport, Options options)
      : transport_(&transport), options_(options) {}
  ~CallBatcher();

  CallBatcher(const CallBatcher&) = delete;
  CallBatcher& operator=(const CallBatcher&) = delete;

  /// Queues one RPC record; sends immediately when batching is disabled or a
  /// full-threshold is crossed. Throws TransportError if the transport died.
  void append(std::span<const std::uint8_t> record) CRICKET_EXCLUDES(mu_);

  /// Sends whatever is buffered now. Safe to call with an empty buffer.
  void flush() CRICKET_EXCLUDES(mu_);

  /// Points the batcher at a fresh transport after a reconnect, clearing
  /// the failed latch and discarding buffered-but-unsent records (the
  /// client re-sends every pending call through append() anyway, so
  /// keeping them would send duplicates ahead of the re-sends).
  void rebind(Transport& transport) CRICKET_EXCLUDES(mu_);

  [[nodiscard]] Stats stats() const CRICKET_EXCLUDES(mu_);

  /// Records buffered and not yet sent.
  [[nodiscard]] std::uint32_t buffered() const CRICKET_EXCLUDES(mu_);

 private:
  /// Sends buf_ as one transport write; `full` says a threshold, not a
  /// caller, asked for it.
  void flush_locked(bool full) CRICKET_REQUIRES(mu_);

  Transport* transport_;
  Options options_;

  mutable sim::Mutex mu_;
  std::vector<std::uint8_t> buf_ CRICKET_GUARDED_BY(mu_);
  std::uint32_t buffered_calls_ CRICKET_GUARDED_BY(mu_) = 0;
  bool failed_ CRICKET_GUARDED_BY(mu_) = false;
  Stats stats_ CRICKET_GUARDED_BY(mu_);
};

}  // namespace cricket::rpc
