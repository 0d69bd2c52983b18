#include "cricket/transfer.hpp"

#include <thread>

namespace cricket::core {

namespace {

/// How often a lane waiting in recv_striped looks at its cancel flag.
constexpr auto kCancelPoll = std::chrono::milliseconds(5);

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
  const auto parts = stripe(data.size(), lanes.count());
  // Aggregate charge: lane threads run concurrently on distinct cores, so
  // the CPU cost is the serial cost divided across lanes; the wire is
  // shared, so serialization time is charged once in full.
  clock.advance(vnet::tx_cpu_cost(profile, data.size()) /
                    static_cast<sim::Nanos>(std::max<std::size_t>(1,
                                                                  lanes.count())) +
                vnet::wire_time(profile, data.size()));

  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  threads.reserve(lanes.count());
  for (std::size_t i = 0; i < lanes.count(); ++i) {
    const auto [off, len] = parts[i];
    threads.emplace_back([&, i, off = off, len = len] {
      try {
        if (len > 0) lanes.lanes[i]->send(data.subspan(off, len));
      } catch (const rpc::TransportError&) {
        ok = false;
      }
    });
  }
  for (auto& t : threads) t.join();
  return ok;
}

bool recv_striped(TransferLanes& lanes, std::span<std::uint8_t> out,
                  const vnet::NetworkProfile& profile, sim::SimClock& clock,
                  const std::atomic<bool>& cancel) {
  const auto parts = stripe(out.size(), lanes.count());
  clock.advance(vnet::rx_cpu_cost(profile, out.size()) /
                static_cast<sim::Nanos>(
                    std::max<std::size_t>(1, lanes.count())));

  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  threads.reserve(lanes.count());
  for (std::size_t i = 0; i < lanes.count(); ++i) {
    const auto [off, len] = parts[i];
    threads.emplace_back([&, i, off = off, len = len] {
      rpc::Transport& lane = *lanes.lanes[i];
      (void)lane.set_recv_timeout(kCancelPoll);
      try {
        for (std::size_t got = 0; got < len;) {
          try {
            const std::size_t n = lane.recv(out.subspan(off + got, len - got));
            if (n == 0) throw rpc::TransportError("lane closed mid-stripe");
            got += n;
          } catch (const rpc::TransportTimeout&) {
            if (cancel) throw;
          }
        }
      } catch (const rpc::TransportError&) {
        ok = false;
      }
    });
  }
  for (auto& t : threads) t.join();
  return ok;
}

void gather_striped(TransferLanes& lanes, std::span<std::uint8_t> out) {
  const auto parts = stripe(out.size(), lanes.count());
  std::vector<std::thread> threads;
  threads.reserve(lanes.count());
  for (std::size_t i = 0; i < lanes.count(); ++i) {
    const auto [off, len] = parts[i];
    threads.emplace_back([&, i, off = off, len = len] {
      if (len > 0) lanes.lanes[i]->recv_exact(out.subspan(off, len));
    });
  }
  for (auto& t : threads) t.join();
}

void scatter_striped(TransferLanes& lanes,
                     std::span<const std::uint8_t> data) {
  const auto parts = stripe(data.size(), lanes.count());
  std::vector<std::thread> threads;
  threads.reserve(lanes.count());
  for (std::size_t i = 0; i < lanes.count(); ++i) {
    const auto [off, len] = parts[i];
    threads.emplace_back([&, i, off = off, len = len] {
      if (len > 0) lanes.lanes[i]->send(data.subspan(off, len));
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace cricket::core
