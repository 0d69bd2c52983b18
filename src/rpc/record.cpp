#include "rpc/record.hpp"

#include <algorithm>
#include <cstring>

namespace cricket::rpc {
namespace {

constexpr std::uint32_t kLastFragmentBit = 0x80000000u;

void put_header(std::uint8_t out[4], std::uint32_t len, bool last) {
  const std::uint32_t h = len | (last ? kLastFragmentBit : 0u);
  out[0] = static_cast<std::uint8_t>(h >> 24);
  out[1] = static_cast<std::uint8_t>(h >> 16);
  out[2] = static_cast<std::uint8_t>(h >> 8);
  out[3] = static_cast<std::uint8_t>(h);
}

std::uint32_t get_header(const std::uint8_t in[4]) {
  return (std::uint32_t{in[0]} << 24) | (std::uint32_t{in[1]} << 16) |
         (std::uint32_t{in[2]} << 8) | std::uint32_t{in[3]};
}

}  // namespace

void RecordWriter::write_record(std::span<const std::uint8_t> record) {
  // A zero-length record is legal: one empty last fragment.
  std::size_t off = 0;
  do {
    const std::uint32_t n = static_cast<std::uint32_t>(
        std::min<std::size_t>(max_fragment_, record.size() - off));
    const bool last = off + n == record.size();
    std::uint8_t hdr[4];
    put_header(hdr, n, last);
    transport_->send(hdr);
    if (n > 0) transport_->send(record.subspan(off, n));
    off += n;
  } while (off < record.size());
}

void append_record_marked(std::vector<std::uint8_t>& out,
                          std::span<const std::uint8_t> record,
                          std::uint32_t max_fragment) {
  std::size_t off = 0;
  do {
    const std::uint32_t n = static_cast<std::uint32_t>(
        std::min<std::size_t>(max_fragment, record.size() - off));
    const bool last = off + n == record.size();
    std::uint8_t hdr[4];
    put_header(hdr, n, last);
    out.insert(out.end(), hdr, hdr + 4);
    if (n > 0)
      out.insert(out.end(), record.begin() + static_cast<std::ptrdiff_t>(off),
                 record.begin() + static_cast<std::ptrdiff_t>(off + n));
    off += n;
  } while (off < record.size());
}

bool RecordReader::take(std::span<std::uint8_t> dst, std::size_t& done,
                        bool eof_ok) {
  for (;;) {
    const std::size_t n = std::min(dst.size() - done, buf_.size() - pos_);
    if (n > 0) {
      std::memcpy(dst.data() + done, buf_.data() + pos_, n);
      pos_ += n;
      done += n;
      eof_ok = false;
    }
    if (done == dst.size()) return true;
    // The buffer is drained here. Bytes that would not fit a read-ahead
    // chunk skip it; anything smaller refills it.
    std::size_t got;
    if (dst.size() - done >= read_ahead_) {
      got = transport_->recv(dst.subspan(done));
      done += got;
    } else {
      buf_.resize(read_ahead_);
      pos_ = read_ahead_;  // still empty if recv throws (a timeout)
      got = transport_->recv(buf_);
      buf_.resize(got);
      pos_ = 0;
    }
    if (got == 0) {
      if (eof_ok) return false;
      throw TransportError("connection closed mid-message");
    }
    eof_ok = false;
  }
}

bool RecordReader::read_record(std::vector<std::uint8_t>& out) {
  for (;;) {
    if (filled_ == record_.size()) {  // no fragment body left to read
      // Clean EOF (no record) is only legal before the first header byte.
      if (!take(header_, header_got_, !started_ && header_got_ == 0))
        return false;
      header_got_ = 0;
      const std::uint32_t h = get_header(header_);
      const std::uint32_t len = h & ~kLastFragmentBit;
      if (record_.size() + len > max_record_)
        throw TransportError("RPC record exceeds maximum size");
      record_.resize(record_.size() + len);
      last_ = (h & kLastFragmentBit) != 0;
      started_ = true;
    }
    (void)take(record_, filled_, false);
    if (last_) {
      out.swap(record_);
      record_.clear();
      filled_ = 0;
      started_ = false;
      return true;
    }
  }
}

bool RecordReader::has_record() const noexcept {
  if (started_ || header_got_ > 0) return false;
  // Walks untrusted fragment lengths: every step is bounded by the bytes
  // actually buffered, and the running total by max_record_.
  std::size_t at = pos_;
  std::size_t total = 0;
  while (buf_.size() - at >= 4) {
    const std::uint32_t h = get_header(buf_.data() + at);
    const std::size_t len = h & ~kLastFragmentBit;
    total += len;
    if (total > max_record_ || buf_.size() - at - 4 < len) return false;
    at += 4 + len;
    if ((h & kLastFragmentBit) != 0) return true;
  }
  return false;
}

}  // namespace cricket::rpc
