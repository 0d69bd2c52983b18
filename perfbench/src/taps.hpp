// Transport taps: rpc::Transport decorators the benchmark puts around each
// end that env::connect returns, so every layer below the CUDA client and
// above the wire is timed from outside the program.
//
// GuestTap always counts bytes in each direction (the end-to-end bandwidth
// metrics need them); in timed mode it also sums the time spent inside
// send() and recv(). ServerTap is used only in the traced run: it splits the
// server thread's time into idle (inside recv), busy (from the end of a
// request's last recv to the start of its reply send: decode, dispatch,
// gpusim, encode) and send, and counts the reply records it sends by
// following the ONC RPC record marks in the outgoing byte stream.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>

#include "measure.hpp"
#include "rpc/transport.hpp"

namespace perfbench {

class GuestTap final : public cricket::rpc::Transport {
 public:
  struct Totals {
    std::uint64_t sends = 0;
    std::uint64_t recvs = 0;
    std::uint64_t tx_bytes = 0;
    std::uint64_t rx_bytes = 0;
    std::int64_t send_ns = 0;
    std::int64_t recv_ns = 0;
  };

  GuestTap(std::unique_ptr<cricket::rpc::Transport> inner, bool timed)
      : inner_(std::move(inner)), timed_(timed) {}

  void send(std::span<const std::uint8_t> data) override {
    const std::int64_t t0 = timed_ ? now_ns() : 0;
    inner_->send(data);
    if (timed_) send_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
    sends_.fetch_add(1, std::memory_order_relaxed);
    tx_bytes_.fetch_add(data.size(), std::memory_order_relaxed);
  }

  std::size_t recv(std::span<std::uint8_t> out) override {
    const std::int64_t t0 = timed_ ? now_ns() : 0;
    const std::size_t n = inner_->recv(out);
    if (timed_) recv_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
    recvs_.fetch_add(1, std::memory_order_relaxed);
    rx_bytes_.fetch_add(n, std::memory_order_relaxed);
    return n;
  }

  bool set_recv_timeout(std::chrono::nanoseconds timeout) override {
    return inner_->set_recv_timeout(timeout);
  }
  void shutdown() override { inner_->shutdown(); }

  [[nodiscard]] std::uint64_t tx_bytes() const noexcept {
    return tx_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t rx_bytes() const noexcept {
    return rx_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] Totals totals() const noexcept {
    return {sends_.load(std::memory_order_relaxed),
            recvs_.load(std::memory_order_relaxed), tx_bytes(), rx_bytes(),
            send_ns_.load(std::memory_order_relaxed),
            recv_ns_.load(std::memory_order_relaxed)};
  }

 private:
  std::unique_ptr<cricket::rpc::Transport> inner_;
  const bool timed_;
  std::atomic<std::uint64_t> sends_{0};
  std::atomic<std::uint64_t> recvs_{0};
  std::atomic<std::uint64_t> tx_bytes_{0};
  std::atomic<std::uint64_t> rx_bytes_{0};
  std::atomic<std::int64_t> send_ns_{0};
  std::atomic<std::int64_t> recv_ns_{0};
};

class ServerTap final : public cricket::rpc::Transport {
 public:
  struct Totals {
    std::uint64_t sends = 0;
    std::uint64_t replies = 0;
    std::int64_t send_ns = 0;
    std::int64_t idle_ns = 0;
    std::int64_t busy_ns = 0;
  };

  explicit ServerTap(std::unique_ptr<cricket::rpc::Transport> inner)
      : inner_(std::move(inner)) {}

  void send(std::span<const std::uint8_t> data) override {
    const std::int64_t t0 = now_ns();
    // The first send after a completed recv starts a reply: the gap since
    // that recv returned is the server's work on the request.
    if (after_recv_.exchange(false, std::memory_order_relaxed)) {
      busy_ns_.fetch_add(t0 - last_recv_end_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    }
    inner_->send(data);
    send_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
    sends_.fetch_add(1, std::memory_order_relaxed);
    count_records(data);
  }

  std::size_t recv(std::span<std::uint8_t> out) override {
    const std::int64_t t0 = now_ns();
    const std::size_t n = inner_->recv(out);
    const std::int64_t t1 = now_ns();
    idle_ns_.fetch_add(t1 - t0, std::memory_order_relaxed);
    last_recv_end_.store(t1, std::memory_order_relaxed);
    after_recv_.store(true, std::memory_order_relaxed);
    return n;
  }

  bool set_recv_timeout(std::chrono::nanoseconds timeout) override {
    return inner_->set_recv_timeout(timeout);
  }
  void shutdown() override { inner_->shutdown(); }

  [[nodiscard]] Totals totals() const noexcept {
    return {sends_.load(std::memory_order_relaxed),
            replies_.load(std::memory_order_relaxed),
            send_ns_.load(std::memory_order_relaxed),
            idle_ns_.load(std::memory_order_relaxed),
            busy_ns_.load(std::memory_order_relaxed)};
  }

 private:
  /// Walks the record-marking stream (RFC 5531 §11: 4-byte header, top bit
  /// = last fragment, low 31 bits = fragment length). Sender thread only.
  void count_records(std::span<const std::uint8_t> data) {
    std::size_t i = 0;
    while (i < data.size()) {
      if (frag_left_ == 0 && !in_body_) {
        header_ = (header_ << 8) | data[i++];
        if (++header_bytes_ < 4) continue;
        last_fragment_ = (header_ & 0x80000000u) != 0;
        frag_left_ = header_ & 0x7fffffffu;
        header_ = 0;
        header_bytes_ = 0;
        in_body_ = true;
      }
      const std::size_t take =
          std::min<std::size_t>(frag_left_, data.size() - i);
      i += take;
      frag_left_ -= static_cast<std::uint32_t>(take);
      if (frag_left_ == 0) {
        in_body_ = false;
        if (last_fragment_)
          replies_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  std::unique_ptr<cricket::rpc::Transport> inner_;
  std::atomic<std::uint64_t> sends_{0};
  std::atomic<std::uint64_t> replies_{0};
  std::atomic<std::int64_t> send_ns_{0};
  std::atomic<std::int64_t> idle_ns_{0};
  std::atomic<std::int64_t> busy_ns_{0};
  std::atomic<std::int64_t> last_recv_end_{0};
  std::atomic<bool> after_recv_{false};
  std::uint32_t header_ = 0;
  int header_bytes_ = 0;
  std::uint32_t frag_left_ = 0;
  bool in_body_ = false;
  bool last_fragment_ = false;
};

}  // namespace perfbench
