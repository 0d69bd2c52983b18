// Ethernet / IPv4 / TCP frame codecs for the simulated network path.
//
// These are real wire-format encoders/parsers (big-endian fields, verified
// checksums) so the virtio data path carries genuine packets and the guests'
// checksum/segmentation work is authentic, not a stand-in constant.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace cricket::vnet {

class PacketError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

using MacAddr = std::array<std::uint8_t, 6>;

constexpr std::size_t kEthHeaderLen = 14;
constexpr std::size_t kIpv4HeaderLen = 20;  // no options
constexpr std::size_t kTcpHeaderLen = 20;   // no options
constexpr std::size_t kFrameHeaderLen =
    kEthHeaderLen + kIpv4HeaderLen + kTcpHeaderLen;
constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;

/// TCP flag bits.
constexpr std::uint8_t kTcpFin = 0x01;
constexpr std::uint8_t kTcpSyn = 0x02;
constexpr std::uint8_t kTcpRst = 0x04;
constexpr std::uint8_t kTcpPsh = 0x08;
constexpr std::uint8_t kTcpAck = 0x10;

struct EthHeader {
  MacAddr dst{};
  MacAddr src{};
  std::uint16_t ethertype = kEtherTypeIpv4;
};

struct Ipv4Header {
  std::uint16_t total_len = 0;  // header + payload
  std::uint16_t ident = 0;
  std::uint8_t ttl = 64;
  std::uint8_t protocol = 6;  // TCP
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint16_t checksum = 0;  // filled by encoder / verified by parser
};

struct TcpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 0xFFFF;
  std::uint16_t checksum = 0;
};

/// A parsed frame whose payload still points into the frame's buffer.
struct FrameView {
  EthHeader eth;
  Ipv4Header ip;
  TcpHeader tcp;
  std::span<const std::uint8_t> payload;
};

/// A parsed frame with the payload copied out.
struct ParsedFrame {
  EthHeader eth;
  Ipv4Header ip;
  TcpHeader tcp;
  std::vector<std::uint8_t> payload;
};

/// Builds a complete Ethernet+IPv4+TCP frame. If `fill_checksums` is true the
/// IP and TCP checksums are computed (the software path); if false they are
/// left zero, standing for checksum offload where the "NIC" (host) fills or
/// ignores them.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    const EthHeader& eth, const Ipv4Header& ip, const TcpHeader& tcp,
    std::span<const std::uint8_t> payload, bool fill_checksums);

/// encode_frame() in place: writes the headers (and checksums) of a frame
/// whose payload already sits at frame[kFrameHeaderLen..]; `frame` spans
/// headers and payload exactly.
void seal_frame(std::span<std::uint8_t> frame, const EthHeader& eth,
                const Ipv4Header& ip, const TcpHeader& tcp,
                bool fill_checksums);

/// Parses and structurally validates a frame. If `verify_checksums` is true,
/// bad IP/TCP checksums throw PacketError (the software receive path); when
/// offloaded, validation is skipped (the "NIC" already did it). The view's
/// payload is valid as long as `frame` is.
[[nodiscard]] FrameView view_frame(std::span<const std::uint8_t> frame,
                                   bool verify_checksums);

/// view_frame() with the payload copied out of `frame`.
[[nodiscard]] ParsedFrame parse_frame(std::span<const std::uint8_t> frame,
                                      bool verify_checksums);

/// Maximum TCP payload per frame for a given IP MTU (9000 in the paper §4).
[[nodiscard]] constexpr std::size_t mss_for_mtu(std::size_t ip_mtu) noexcept {
  return ip_mtu - kIpv4HeaderLen - kTcpHeaderLen;
}

}  // namespace cricket::vnet
