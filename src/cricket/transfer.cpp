#include "cricket/transfer.hpp"

#include <thread>

namespace cricket::core {

namespace {

/// How often a lane waiting in recv_striped looks at its cancel flag.
constexpr auto kCancelPoll = std::chrono::milliseconds(5);

/// Runs `move(lane, offset, length)` for lane i's part of a `total`-byte
/// stripe, one thread per lane, and joins them all. Returns false when a
/// lane threw TransportError (a closed or failed lane); the others still
/// run to their end.
template <typename Move>
bool on_every_lane(TransferLanes& lanes, std::size_t total, Move&& move) {
  const auto parts = stripe(total, lanes.count());
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  threads.reserve(lanes.count());
  for (std::size_t i = 0; i < lanes.count(); ++i) {
    threads.emplace_back([&, i] {
      try {
        move(*lanes.lanes[i], parts[i].first, parts[i].second);
      } catch (const rpc::TransportError&) {
        ok = false;
      }
    });
  }
  for (auto& t : threads) t.join();
  return ok;
}

}  // namespace

std::pair<TransferLanes, TransferLanes> make_lane_pairs(
    std::size_t n, std::size_t capacity_bytes) {
  TransferLanes client, server;
  client.lanes.reserve(n);
  server.lanes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto [c, s] = rpc::make_pipe_pair(capacity_bytes);
    client.lanes.push_back(std::move(c));
    server.lanes.push_back(std::move(s));
  }
  return {std::move(client), std::move(server)};
}

std::vector<std::pair<std::size_t, std::size_t>> stripe(std::size_t total,
                                                        std::size_t lanes) {
  std::vector<std::pair<std::size_t, std::size_t>> parts;
  parts.reserve(lanes);
  const std::size_t base = lanes == 0 ? 0 : total / lanes;
  std::size_t off = 0;
  for (std::size_t i = 0; i < lanes; ++i) {
    const std::size_t len = i + 1 == lanes ? total - off : base;
    parts.emplace_back(off, len);
    off += len;
  }
  return parts;
}

bool send_striped(TransferLanes& lanes, std::span<const std::uint8_t> data,
                  const vnet::NetworkProfile& profile, sim::SimClock& clock) {
  // Aggregate charge: lane threads run concurrently on distinct cores, so
  // the CPU cost is the serial cost divided across lanes; the wire is
  // shared, so serialization time is charged once in full.
  clock.advance(vnet::tx_cpu_cost(profile, data.size()) /
                    static_cast<sim::Nanos>(std::max<std::size_t>(1,
                                                                  lanes.count())) +
                vnet::wire_time(profile, data.size()));
  return on_every_lane(lanes, data.size(), [&](rpc::Transport& lane,
                                               std::size_t off,
                                               std::size_t len) {
    if (len > 0) lane.send(data.subspan(off, len));
  });
}

bool recv_striped(TransferLanes& lanes, std::span<std::uint8_t> out,
                  const vnet::NetworkProfile& profile, sim::SimClock& clock,
                  const std::atomic<bool>& cancel) {
  clock.advance(vnet::rx_cpu_cost(profile, out.size()) /
                static_cast<sim::Nanos>(
                    std::max<std::size_t>(1, lanes.count())));
  return on_every_lane(lanes, out.size(), [&](rpc::Transport& lane,
                                              std::size_t off,
                                              std::size_t len) {
    (void)lane.set_recv_timeout(kCancelPoll);
    for (std::size_t got = 0; got < len;) {
      try {
        const std::size_t n = lane.recv(out.subspan(off + got, len - got));
        if (n == 0) throw rpc::TransportError("lane closed mid-stripe");
        got += n;
      } catch (const rpc::TransportTimeout&) {
        if (cancel) throw;
      }
    }
  });
}

bool gather_striped(TransferLanes& lanes, std::span<std::uint8_t> out) {
  return on_every_lane(lanes, out.size(), [&](rpc::Transport& lane,
                                              std::size_t off,
                                              std::size_t len) {
    if (len > 0) lane.recv_exact(out.subspan(off, len));
  });
}

bool scatter_striped(TransferLanes& lanes,
                     std::span<const std::uint8_t> data) {
  return on_every_lane(lanes, data.size(), [&](rpc::Transport& lane,
                                               std::size_t off,
                                               std::size_t len) {
    if (len > 0) lane.send(data.subspan(off, len));
  });
}

}  // namespace cricket::core
