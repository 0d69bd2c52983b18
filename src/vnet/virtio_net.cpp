#include "vnet/virtio_net.hpp"

#include <algorithm>
#include <cstring>

#include "vnet/packet.hpp"

namespace cricket::vnet {
namespace {

constexpr MacAddr kGuestMac = {0x02, 0x00, 0x00, 0x00, 0x00, 0x01};
constexpr MacAddr kHostMac = {0x02, 0x00, 0x00, 0x00, 0x00, 0x02};
constexpr std::uint32_t kGuestIp = 0x0A000002;  // 10.0.0.2
constexpr std::uint32_t kHostIp = 0x0A000001;   // 10.0.0.1
constexpr std::uint16_t kGuestPort = 40000;
constexpr std::uint16_t kCricketPort = 49152;

}  // namespace

namespace detail {

TransportCounters::TransportCounters(const std::string& instance)
    : frames_tx(obs::Registry::global().counter(
          "cricket_vnet_frames_total",
          {{"transport", instance}, {"dir", "tx"}},
          "Ethernet frames through the virtio-net transport")),
      frames_rx(obs::Registry::global().counter(
          "cricket_vnet_frames_total",
          {{"transport", instance}, {"dir", "rx"}})),
      bytes_tx(obs::Registry::global().counter(
          "cricket_vnet_bytes_total",
          {{"transport", instance}, {"dir", "tx"}},
          "Payload bytes through the virtio-net transport")),
      bytes_rx(obs::Registry::global().counter(
          "cricket_vnet_bytes_total",
          {{"transport", instance}, {"dir", "rx"}})),
      checksums_tx(obs::Registry::global().counter(
          "cricket_vnet_checksums_total",
          {{"transport", instance}, {"dir", "tx"}},
          "Software checksum operations (no offload negotiated)")),
      checksums_rx(obs::Registry::global().counter(
          "cricket_vnet_checksums_total",
          {{"transport", instance}, {"dir", "rx"}})) {}

}  // namespace detail

VirtioNetTransport::VirtioNetTransport(NetworkProfile profile,
                                       sim::SimClock& clock,
                                       std::shared_ptr<rpc::ByteQueue> wire_tx,
                                       std::shared_ptr<rpc::ByteQueue> wire_rx)
    : profile_(profile),
      clock_(&clock),
      wire_tx_(std::move(wire_tx)),
      wire_rx_(std::move(wire_rx)),
      // Each descriptor slot must hold the largest buffer we ever queue:
      // 64 KiB super-frames (TSO / MRG_RXBUF) plus header room.
      tx_memory_(static_cast<std::size_t>(kQueueSize) * (65536 + kHeaderRoom)),
      rx_memory_(static_cast<std::size_t>(kQueueSize) * (65536 + kHeaderRoom)),
      tx_(tx_memory_, kQueueSize),
      rx_(rx_memory_, kQueueSize),
      rx_chunk_(profile_.rx_buffer_size()),
      stats_(obs::Registry::global().unique_label("vnet")) {
  // Pre-post receive buffers, as a real driver does at device bring-up.
  for (int i = 0; i < 64; ++i) post_rx_buffer();
}

VirtioNetTransport::~VirtioNetTransport() {
  shutdown();
  wire_rx_->close();
}

void VirtioNetTransport::post_rx_buffer() {
  const std::uint32_t len = static_cast<std::uint32_t>(
      profile_.rx_buffer_size() + kHeaderRoom);
  const std::uint32_t lens[1] = {len};
  const auto head = rx_.add_chain({}, lens);
  if (head) rx_.kick(*head);
}

void VirtioNetTransport::reclaim_tx_descriptors() {
  while (auto used = tx_.take_used()) tx_.recycle(used->first);
}

void VirtioNetTransport::send(std::span<const std::uint8_t> data) {
  if (stopping_.load()) throw rpc::TransportError("transport shut down");
  obs::Span span(obs::Layer::kVnetTx, nullptr, data.size());
  // Charge the guest CPU + wire once for the whole burst; the per-frame
  // machinery below does the real (functional) work.
  clock_->advance(tx_cpu_cost(profile_, data.size()) +
                  wire_time(profile_, data.size()));

  const std::size_t seg = profile_.tx_segment_size();
  std::size_t off = 0;
  do {
    const std::size_t n = std::min(seg, data.size() - off);
    EthHeader eth{.dst = kHostMac, .src = kGuestMac};
    Ipv4Header ip;
    ip.src = kGuestIp;
    ip.dst = kHostIp;
    TcpHeader tcp;
    tcp.src_port = kGuestPort;
    tcp.dst_port = kCricketPort;
    tcp.seq = tx_seq_;
    tcp.flags = static_cast<std::uint8_t>(kTcpAck | kTcpPsh);
    // The driver builds the frame in place in its TX buffer, with the
    // software checksum (real computation) unless offloaded to the host.
    const auto len = static_cast<std::uint32_t>(kFrameHeaderLen + n);
    auto buffer = tx_.add_buffer(len);
    if (!buffer) {
      // Ring full: the device takes every kicked frame, and reclaiming
      // then frees the whole table.
      run_tx_device();
      reclaim_tx_descriptors();
      buffer = tx_.add_buffer(len);
    }
    const auto [head, frame] = buffer.value();
    if (n > 0) std::memcpy(frame.data() + kFrameHeaderLen, data.data() + off, n);
    const bool sw_csum = !profile_.offloads.tx_checksum;
    seal_frame(frame, eth, ip, tcp, /*fill_checksums=*/sw_csum);
    if (sw_csum) stats_.checksums_tx.inc();
    tx_seq_ += static_cast<std::uint32_t>(n);
    tx_.kick(head);
    stats_.frames_tx.inc();
    stats_.bytes_tx.inc(n);
    off += n;
  } while (off < data.size());
  run_tx_device();
  reclaim_tx_descriptors();
}

void VirtioNetTransport::run_tx_device() {
  // Host TAP side: unwrap every kicked frame where it lies in guest memory
  // (checksums are trusted: the host verifies or fills them at line rate in
  // hardware), put the payloads on the wire in one push, then complete the
  // chains. One push per burst lets the peer read the burst in one go.
  tx_heads_.clear();
  tx_payloads_.clear();
  while (auto chain = tx_.pop_avail()) {
    try {
      tx_payloads_.push_back(
          view_frame(tx_.view_readable(*chain), /*verify=*/false).payload);
    } catch (const PacketError&) {
      // Malformed frame: a real TAP would drop it silently.
    }
    tx_heads_.push_back(chain->head);
  }
  wire_tx_->push(tx_payloads_);
  for (const auto head : tx_heads_) tx_.push_used(head, 0);
}

void VirtioNetTransport::receive_chunk(std::size_t n) {
  // Host side: the host NIC always delivers frames with valid checksums
  // filled, built in the next posted buffer. recv() re-posts every buffer
  // it takes, so one is always there, with room for the headers.
  static_assert(kHeaderRoom >= kFrameHeaderLen);
  EthHeader eth{.dst = kGuestMac, .src = kHostMac};
  Ipv4Header ip;
  ip.src = kHostIp;
  ip.dst = kGuestIp;
  TcpHeader tcp;
  tcp.src_port = kCricketPort;
  tcp.dst_port = kGuestPort;
  tcp.seq = rx_seq_;
  tcp.flags = static_cast<std::uint8_t>(kTcpAck | kTcpPsh);
  const auto chain = rx_.pop_avail().value();
  const auto frame = rx_.view_writable(chain).first(kFrameHeaderLen + n);
  std::memcpy(frame.data() + kFrameHeaderLen, rx_chunk_.data(), n);
  seal_frame(frame, eth, ip, tcp, /*fill_checksums=*/true);
  rx_seq_ += static_cast<std::uint32_t>(n);
  rx_.push_used(chain.head, static_cast<std::uint32_t>(frame.size()));

  // Guest side: take the completion and unwrap it in guest memory.
  const auto [head, written] = rx_.take_used().value();
  try {
    // Software checksum verification (real computation) unless the
    // GUEST_CSUM offload lets the guest trust the host.
    const bool sw_csum = !profile_.offloads.rx_checksum;
    const FrameView parsed =
        view_frame(rx_.view_in_buffer(head, written), /*verify=*/sw_csum);
    if (sw_csum) stats_.checksums_rx.inc();
    rx_pending_.insert(rx_pending_.end(), parsed.payload.begin(),
                       parsed.payload.end());
    stats_.frames_rx.inc();
    stats_.bytes_rx.inc(parsed.payload.size());
  } catch (const PacketError&) {
    // Corrupt frame dropped; reliable wire makes this benign.
  }
  rx_.recycle(head);
  post_rx_buffer();  // replenish the ring
}

std::size_t VirtioNetTransport::recv(std::span<std::uint8_t> out) {
  obs::Span span(obs::Layer::kVnetRx);
  // Pull the wire on this thread: block for the first chunk if nothing is
  // pending, then take only what is already queued. One recv() spans many
  // frames, as one socket read does on a real guest — per-frame stack costs
  // are still charged per frame by rx_cpu_cost.
  if (rx_pending_.size() - rx_read_ < out.size()) {
    // About to append: drop the consumed prefix first. What stays is less
    // than `out`, so the move costs less than the copy out below.
    rx_pending_.erase(rx_pending_.begin(),
                      rx_pending_.begin() +
                          static_cast<std::ptrdiff_t>(rx_read_));
    rx_read_ = 0;
    while (rx_pending_.size() < out.size()) {
      std::size_t n = 0;
      if (rx_pending_.empty()) {
        // A TransportTimeout leaves from here: the caller retries, not EOF.
        n = wire_rx_->pop_for(
            rx_chunk_, std::chrono::nanoseconds(recv_timeout_ns_.load(
                           std::memory_order_relaxed)));
      } else if (const auto queued = wire_rx_->try_pop(rx_chunk_)) {
        n = *queued;
      } else {
        break;  // nothing more queued right now
      }
      if (n == 0) break;  // wire closed and drained: EOF once pending runs out
      receive_chunk(n);
    }
  }
  const std::size_t n = std::min(out.size(), rx_pending_.size() - rx_read_);
  if (n > 0) std::memcpy(out.data(), rx_pending_.data() + rx_read_, n);
  rx_read_ += n;
  clock_->advance(rx_cpu_cost(profile_, n));
  if (n > 0) {
    span.set_arg(n);
  } else {
    span.cancel();  // shutdown EOF
  }
  return n;
}

void VirtioNetTransport::shutdown() {
  if (stopping_.exchange(true)) return;
  wire_tx_->close();
}

}  // namespace cricket::vnet
