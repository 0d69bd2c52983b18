// Byte-stream transports beneath the ONC RPC record layer.
//
// The RPC runtime only needs a reliable, ordered byte stream — exactly what
// the paper's stack gets from TCP (smoltcp in RustyHermit, lwIP in Unikraft,
// the Linux kernel elsewhere). Implementations here:
//   * PipeTransport   — in-process bounded duplex pipe (deterministic tests,
//                       and the carrier the vnet cost models wrap).
//   * TcpTransport    — real loopback sockets for integration tests.
// The vnet module layers virtio/TCP simulation and virtual-time charging on
// top of this interface.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/annotations.hpp"

namespace cricket::rpc {

/// Thrown on transport-level failures (peer closed, socket error).
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by recv() when a set_recv_timeout bound elapses with no data. A
/// subclass of TransportError so callers without deadline handling keep
/// their existing failure classification; the retry layer catches it
/// specifically to distinguish "slow" from "gone".
class TransportTimeout : public TransportError {
 public:
  using TransportError::TransportError;
};

/// Reliable ordered byte stream. Implementations must be safe for one
/// concurrent sender plus one concurrent receiver (full duplex), but not for
/// multiple concurrent senders. Destroying one closes both directions, as
/// closing a socket does.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Blocks until all of `data` is accepted. Throws TransportError if the
  /// peer is gone.
  virtual void send(std::span<const std::uint8_t> data) = 0;

  /// Blocks until at least one byte is available; returns the number of bytes
  /// read into `out`, or 0 on orderly end-of-stream.
  virtual std::size_t recv(std::span<std::uint8_t> out) = 0;

  /// Reads exactly `out.size()` bytes or throws TransportError on EOF.
  void recv_exact(std::span<std::uint8_t> out);

  /// Bounds how long any single recv() may block; once the bound elapses
  /// with no data, recv() throws TransportTimeout. Zero clears the bound.
  /// Returns true when the transport honours it; the base implementation
  /// returns false (recv stays fully blocking), so a transport without
  /// timed waits degrades to deadline-between-records only.
  virtual bool set_recv_timeout(std::chrono::nanoseconds /*timeout*/) {
    return false;
  }

  /// Half-closes the write side; the peer's recv() will drain then return 0.
  virtual void shutdown() = 0;
};

/// One direction of an in-process pipe: a bounded byte FIFO kept in a
/// fixed-capacity ring (two-part memcpy in and out). Thread-safe.
class ByteQueue {
 public:
  explicit ByteQueue(std::size_t capacity);

  /// Blocks while full. Throws TransportError if closed.
  void push(std::span<const std::uint8_t> data) CRICKET_EXCLUDES(mu_);
  /// push() of the pieces' concatenation: a reader woken by it finds as
  /// much of the whole as fits, not just the first piece.
  void push(std::span<const std::span<const std::uint8_t>> pieces)
      CRICKET_EXCLUDES(mu_);
  /// Blocks while empty and open; returns bytes read (0 = closed and drained).
  std::size_t pop(std::span<std::uint8_t> out) CRICKET_EXCLUDES(mu_);
  /// Like pop() but gives up after `timeout` with no data, throwing
  /// TransportTimeout. timeout <= 0 means wait forever.
  std::size_t pop_for(std::span<std::uint8_t> out,
                      std::chrono::nanoseconds timeout) CRICKET_EXCLUDES(mu_);
  /// Never blocks: bytes read, 0 once closed and drained, or nullopt while
  /// empty and still open.
  std::optional<std::size_t> try_pop(std::span<std::uint8_t> out)
      CRICKET_EXCLUDES(mu_);
  void close() CRICKET_EXCLUDES(mu_);

 private:
  std::size_t take_locked(std::span<std::uint8_t> out) CRICKET_REQUIRES(mu_);

  sim::Mutex mu_;
  sim::CondVar not_empty_;
  sim::CondVar not_full_;
  const std::size_t capacity_;
  // Uninitialised on purpose: a zero fill of every wire's ring shows up in
  // connection setup time, and no byte is read before it is written.
  const std::unique_ptr<std::uint8_t[]> ring_;
  std::size_t head_ CRICKET_GUARDED_BY(mu_) = 0;  // oldest queued byte
  std::size_t size_ CRICKET_GUARDED_BY(mu_) = 0;
  bool closed_ CRICKET_GUARDED_BY(mu_) = false;
};

/// In-process duplex transport; create pairs with `make_pipe_pair`.
class PipeTransport final : public Transport {
 public:
  PipeTransport(std::shared_ptr<ByteQueue> tx, std::shared_ptr<ByteQueue> rx)
      : tx_(std::move(tx)), rx_(std::move(rx)) {}
  /// Closes both directions, as closing a socket does: the peer's recv()
  /// drains then returns 0, and its send() throws TransportError.
  ~PipeTransport() override {
    tx_->close();
    rx_->close();
  }

  void send(std::span<const std::uint8_t> data) override { tx_->push(data); }
  std::size_t recv(std::span<std::uint8_t> out) override {
    const auto timeout = recv_timeout_.load(std::memory_order_relaxed);
    if (timeout > 0) {
      return rx_->pop_for(out, std::chrono::nanoseconds(timeout));
    }
    return rx_->pop(out);
  }
  bool set_recv_timeout(std::chrono::nanoseconds timeout) override {
    recv_timeout_.store(timeout.count(), std::memory_order_relaxed);
    return true;
  }
  void shutdown() override { tx_->close(); }

 private:
  std::shared_ptr<ByteQueue> tx_;
  std::shared_ptr<ByteQueue> rx_;
  std::atomic<std::int64_t> recv_timeout_{0};
};

/// Creates a connected pair of in-process transports (client end, server end).
[[nodiscard]] std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
make_pipe_pair(std::size_t capacity_bytes = 1 << 20);

/// Real TCP socket transport (used for loopback integration tests).
class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(int fd) noexcept : fd_(fd) {}
  ~TcpTransport() override;
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  void send(std::span<const std::uint8_t> data) override;
  std::size_t recv(std::span<std::uint8_t> out) override;
  bool set_recv_timeout(std::chrono::nanoseconds timeout) override;
  void shutdown() override;

  /// Connects to 127.0.0.1:`port`.
  [[nodiscard]] static std::unique_ptr<TcpTransport> connect_loopback(
      std::uint16_t port);

 private:
  int fd_;
  std::atomic<std::int64_t> recv_timeout_ns_{0};
};

/// Listening TCP socket bound to a loopback ephemeral port.
class TcpListener {
 public:
  TcpListener();  // binds 127.0.0.1:0
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// Blocks for one inbound connection; returns nullptr once closed.
  [[nodiscard]] std::unique_ptr<TcpTransport> accept();
  /// Safe to call from another thread while accept() is blocked.
  void close();

 private:
  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
};

}  // namespace cricket::rpc
