#include "vnet/packet.hpp"

#include <cstring>

#include "vnet/checksum.hpp"

namespace cricket::vnet {
namespace {

void put16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}

void put32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

std::uint16_t get16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((std::uint16_t{p[0]} << 8) | p[1]);
}

std::uint32_t get32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

}  // namespace

void seal_frame(std::span<std::uint8_t> frame, const EthHeader& eth,
                const Ipv4Header& ip, const TcpHeader& tcp,
                bool fill_checksums) {
  if (frame.size() < kFrameHeaderLen)
    throw PacketError("frame shorter than its headers");
  const std::size_t ip_total = frame.size() - kEthHeaderLen;
  if (ip_total > 0xFFFF) throw PacketError("IPv4 packet too large");

  std::uint8_t* e = frame.data();
  std::memcpy(e, eth.dst.data(), 6);
  std::memcpy(e + 6, eth.src.data(), 6);
  put16(e + 12, eth.ethertype);

  std::uint8_t* i = e + kEthHeaderLen;
  i[0] = 0x45;  // version 4, IHL 5
  i[1] = 0;     // DSCP/ECN
  put16(i + 2, static_cast<std::uint16_t>(ip_total));
  put16(i + 4, ip.ident);
  put16(i + 6, 0x4000);  // DF, no fragments
  i[8] = ip.ttl;
  i[9] = ip.protocol;
  put16(i + 10, 0);  // checksum placeholder
  put32(i + 12, ip.src);
  put32(i + 16, ip.dst);

  std::uint8_t* t = i + kIpv4HeaderLen;
  put16(t + 0, tcp.src_port);
  put16(t + 2, tcp.dst_port);
  put32(t + 4, tcp.seq);
  put32(t + 8, tcp.ack);
  t[12] = 5 << 4;  // data offset: 5 words
  t[13] = tcp.flags;
  put16(t + 14, tcp.window);
  put16(t + 16, 0);  // checksum placeholder
  put16(t + 18, 0);  // urgent pointer

  if (fill_checksums) {
    put16(i + 10, internet_checksum({i, kIpv4HeaderLen}));
    const std::uint16_t tsum =
        tcp_checksum(ip.src, ip.dst, {t, ip_total - kIpv4HeaderLen});
    put16(t + 16, tsum);
  }
}

std::vector<std::uint8_t> encode_frame(const EthHeader& eth,
                                       const Ipv4Header& ip,
                                       const TcpHeader& tcp,
                                       std::span<const std::uint8_t> payload,
                                       bool fill_checksums) {
  std::vector<std::uint8_t> frame(kFrameHeaderLen + payload.size());
  if (!payload.empty())
    std::memcpy(frame.data() + kFrameHeaderLen, payload.data(),
                payload.size());
  seal_frame(frame, eth, ip, tcp, fill_checksums);
  return frame;
}

FrameView view_frame(std::span<const std::uint8_t> frame,
                     bool verify_checksums) {
  if (frame.size() < kFrameHeaderLen)
    throw PacketError("frame too short");
  FrameView out;
  const std::uint8_t* e = frame.data();
  std::memcpy(out.eth.dst.data(), e, 6);
  std::memcpy(out.eth.src.data(), e + 6, 6);
  out.eth.ethertype = get16(e + 12);
  if (out.eth.ethertype != kEtherTypeIpv4)
    throw PacketError("not an IPv4 frame");

  const std::uint8_t* i = e + kEthHeaderLen;
  if ((i[0] >> 4) != 4) throw PacketError("not IPv4");
  const std::size_t ihl = static_cast<std::size_t>(i[0] & 0x0F) * 4;
  if (ihl != kIpv4HeaderLen) throw PacketError("IPv4 options unsupported");
  out.ip.total_len = get16(i + 2);
  if (out.ip.total_len + kEthHeaderLen > frame.size())
    throw PacketError("IPv4 total length beyond frame");
  if (out.ip.total_len < kIpv4HeaderLen + kTcpHeaderLen)
    throw PacketError("IPv4 total length shorter than the headers");
  out.ip.ident = get16(i + 4);
  out.ip.ttl = i[8];
  out.ip.protocol = i[9];
  if (out.ip.protocol != 6) throw PacketError("not TCP");
  out.ip.checksum = get16(i + 10);
  out.ip.src = get32(i + 12);
  out.ip.dst = get32(i + 16);
  if (verify_checksums && internet_checksum({i, kIpv4HeaderLen}) != 0)
    throw PacketError("bad IPv4 header checksum");

  const std::uint8_t* t = i + kIpv4HeaderLen;
  out.tcp.src_port = get16(t + 0);
  out.tcp.dst_port = get16(t + 2);
  out.tcp.seq = get32(t + 4);
  out.tcp.ack = get32(t + 8);
  const std::size_t doff = static_cast<std::size_t>(t[12] >> 4) * 4;
  if (doff != kTcpHeaderLen) throw PacketError("TCP options unsupported");
  out.tcp.flags = t[13];
  out.tcp.window = get16(t + 14);
  out.tcp.checksum = get16(t + 16);

  const std::size_t seg_len = out.ip.total_len - kIpv4HeaderLen;
  if (verify_checksums) {
    // Sum over the whole segment including the transmitted checksum must be
    // zero (i.e. finish() yields 0).
    if (tcp_checksum(out.ip.src, out.ip.dst, {t, seg_len}) != 0)
      throw PacketError("bad TCP checksum");
  }
  const std::size_t payload_len = seg_len - kTcpHeaderLen;
  out.payload = {t + kTcpHeaderLen, payload_len};
  return out;
}

ParsedFrame parse_frame(std::span<const std::uint8_t> frame,
                        bool verify_checksums) {
  const FrameView v = view_frame(frame, verify_checksums);
  return {v.eth, v.ip, v.tcp, {v.payload.begin(), v.payload.end()}};
}

}  // namespace cricket::vnet
