#include "rpc/transport.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>

namespace cricket::rpc {

void Transport::recv_exact(std::span<std::uint8_t> out) {
  std::size_t got = 0;
  while (got < out.size()) {
    const std::size_t n = recv(out.subspan(got));
    if (n == 0) throw TransportError("connection closed mid-message");
    got += n;
  }
}

// -------------------------------- ByteQueue --------------------------------

ByteQueue::ByteQueue(std::size_t capacity)
    : capacity_(capacity),
      ring_(std::make_unique_for_overwrite<std::uint8_t[]>(capacity)) {
  if (capacity == 0) throw std::invalid_argument("ByteQueue capacity is 0");
}

void ByteQueue::push(std::span<const std::uint8_t> data) {
  push(std::span(&data, 1));
}

void ByteQueue::push(std::span<const std::span<const std::uint8_t>> pieces) {
  std::size_t piece = 0;
  std::size_t off = 0;  // into pieces[piece]
  const auto skip_done = [&] {
    while (piece < pieces.size() && off == pieces[piece].size()) {
      ++piece;
      off = 0;
    }
  };
  skip_done();
  while (piece < pieces.size()) {
    sim::MutexLock lock(mu_);
    while (!closed_ && size_ == capacity_) not_full_.wait(mu_);
    if (closed_) throw TransportError("pipe closed");
    if (size_ == 0) not_empty_.notify_all();
    for (; piece < pieces.size() && size_ < capacity_; skip_done()) {
      const auto data = pieces[piece].subspan(off);
      const std::size_t n = std::min(capacity_ - size_, data.size());
      const std::size_t tail = (head_ + size_) % capacity_;
      const std::size_t first = std::min(n, capacity_ - tail);
      std::memcpy(ring_.get() + tail, data.data(), first);
      std::memcpy(ring_.get(), data.data() + first, n - first);
      size_ += n;
      off += n;
    }
  }
}

std::size_t ByteQueue::take_locked(std::span<std::uint8_t> out) {
  const std::size_t n = std::min(out.size(), size_);
  if (n == 0) return 0;
  const std::size_t first = std::min(n, capacity_ - head_);
  std::memcpy(out.data(), ring_.get() + head_, first);
  std::memcpy(out.data() + first, ring_.get(), n - first);
  if (size_ == capacity_) not_full_.notify_all();
  head_ = (head_ + n) % capacity_;
  size_ -= n;
  return n;
}

std::size_t ByteQueue::pop(std::span<std::uint8_t> out) {
  sim::MutexLock lock(mu_);
  while (!closed_ && size_ == 0) not_empty_.wait(mu_);
  return take_locked(out);  // 0 once closed and drained
}

std::size_t ByteQueue::pop_for(std::span<std::uint8_t> out,
                               std::chrono::nanoseconds timeout) {
  if (timeout <= std::chrono::nanoseconds::zero()) return pop(out);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  sim::MutexLock lock(mu_);
  while (!closed_ && size_ == 0) {
    if (std::chrono::steady_clock::now() >= deadline) {
      throw TransportTimeout("pipe recv timed out");
    }
    not_empty_.wait_until(mu_, deadline);
  }
  return take_locked(out);  // 0 once closed and drained
}

std::optional<std::size_t> ByteQueue::try_pop(std::span<std::uint8_t> out) {
  sim::MutexLock lock(mu_);
  if (size_ == 0 && !closed_) return std::nullopt;
  return take_locked(out);
}

void ByteQueue::close() {
  sim::MutexLock lock(mu_);
  closed_ = true;
  not_empty_.notify_all();
  not_full_.notify_all();
}

std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
make_pipe_pair(std::size_t capacity_bytes) {
  auto a_to_b = std::make_shared<ByteQueue>(capacity_bytes);
  auto b_to_a = std::make_shared<ByteQueue>(capacity_bytes);
  return {std::make_unique<PipeTransport>(a_to_b, b_to_a),
          std::make_unique<PipeTransport>(b_to_a, a_to_b)};
}

// ------------------------------- TcpTransport ------------------------------

TcpTransport::~TcpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

void TcpTransport::send(std::span<const std::uint8_t> data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw TransportError(std::string("send: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

std::size_t TcpTransport::recv(std::span<std::uint8_t> out) {
  const std::int64_t timeout_ns =
      recv_timeout_ns_.load(std::memory_order_relaxed);
  if (timeout_ns > 0) {
    // Bound the wait with poll() rather than SO_RCVTIMEO so a zero return
    // can still be cleanly distinguished from orderly EOF.
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    const int timeout_ms = static_cast<int>(
        std::min<std::int64_t>((timeout_ns + 999'999) / 1'000'000,
                               std::numeric_limits<int>::max()));
    for (;;) {
      const int rc = ::poll(&pfd, 1, timeout_ms);
      if (rc > 0) break;
      if (rc == 0) throw TransportTimeout("tcp recv timed out");
      if (errno == EINTR) continue;
      throw TransportError(std::string("poll: ") + std::strerror(errno));
    }
  }
  for (;;) {
    const ssize_t n = ::recv(fd_, out.data(), out.size(), 0);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    throw TransportError(std::string("recv: ") + std::strerror(errno));
  }
}

bool TcpTransport::set_recv_timeout(std::chrono::nanoseconds timeout) {
  recv_timeout_ns_.store(timeout.count(), std::memory_order_relaxed);
  return true;
}

void TcpTransport::shutdown() { ::shutdown(fd_, SHUT_WR); }

std::unique_ptr<TcpTransport> TcpTransport::connect_loopback(
    std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw TransportError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw TransportError(std::string("connect: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return std::make_unique<TcpTransport>(fd);
}

// ------------------------------- TcpListener -------------------------------

TcpListener::TcpListener() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw TransportError("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    throw TransportError(std::string("bind/listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  fd_.store(fd);
}

TcpListener::~TcpListener() { close(); }

std::unique_ptr<TcpTransport> TcpListener::accept() {
  const int lfd = fd_.load();
  if (lfd < 0) return nullptr;
  const int cfd = ::accept(lfd, nullptr, nullptr);
  if (cfd < 0) return nullptr;  // listener closed
  const int one = 1;
  ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return std::make_unique<TcpTransport>(cfd);
}

void TcpListener::close() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

}  // namespace cricket::rpc
