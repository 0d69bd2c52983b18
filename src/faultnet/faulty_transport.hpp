// FaultyTransport: a Transport decorator that injects seeded faults into the
// send path at RPC-record granularity.
//
// Granularity matters: the record layer emits one logical message as several
// transport sends (header, then payload), and byte-level faults would mostly
// produce un-deframeable garbage that kills the connection instantly —
// realistic for a checksum-less link, useless for exercising recovery. This
// decorator reassembles complete record-marked messages from the stream of
// sends and then drops, duplicates, reorders, corrupts, or delays whole
// messages (and injects hard resets / partition windows), preserving record
// framing so both peers survive and the RPC retry/duplicate-cache machinery
// above gets exercised. Wrap both ends of a connection (with decorrelated
// seeds) to fault both directions.
//
// Determinism: decisions come from a Xoshiro256ss seeded by FaultSpec::seed,
// with a fixed number of draws per message for the decision phase, so the
// same seed over the same message sequence injects the same faults.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "faultnet/fault_spec.hpp"
#include "rpc/transport.hpp"
#include "sim/annotations.hpp"
#include "sim/rng.hpp"
#include "sim/sim_clock.hpp"

namespace cricket::faultnet {

class FaultyTransport final : public rpc::Transport {
 public:
  /// `clock`: when non-null, delay faults charge virtual time on it;
  /// when null they sleep real (wall) time — what the deadline/retry paths
  /// need, since per-call deadlines run on steady_clock.
  FaultyTransport(std::unique_ptr<rpc::Transport> inner, FaultSpec spec,
                  sim::SimClock* clock = nullptr);
  ~FaultyTransport() override;

  void send(std::span<const std::uint8_t> data) override
      CRICKET_EXCLUDES(mu_);
  std::size_t recv(std::span<std::uint8_t> out) override;
  bool set_recv_timeout(std::chrono::nanoseconds timeout) override;
  void shutdown() override CRICKET_EXCLUDES(mu_);

  [[nodiscard]] FaultStats stats() const CRICKET_EXCLUDES(mu_);
  [[nodiscard]] rpc::Transport& inner() noexcept { return *inner_; }

 private:
  /// Applies the fault decision chain to one complete record-marked message.
  void process_message(std::vector<std::uint8_t> msg) CRICKET_REQUIRES(mu_);
  void forward(const std::vector<std::uint8_t>& msg) CRICKET_REQUIRES(mu_);
  /// Randomizes a few payload bytes, walking fragment headers so framing
  /// survives (models corruption caught above the link layer).
  void corrupt_payload(std::vector<std::uint8_t>& msg) CRICKET_REQUIRES(mu_);
  [[nodiscard]] bool budget_left() const CRICKET_REQUIRES(mu_) {
    return spec_.max_faults == 0 || stats_.injected() < spec_.max_faults;
  }

  std::unique_ptr<rpc::Transport> inner_;
  const FaultSpec spec_;
  sim::SimClock* clock_;

  mutable sim::Mutex mu_;
  sim::Xoshiro256ss rng_ CRICKET_GUARDED_BY(mu_);
  /// Bytes accepted by send() but not yet forming a complete message.
  std::vector<std::uint8_t> acc_ CRICKET_GUARDED_BY(mu_);
  /// Message withheld by a reorder fault, released behind the next forward.
  std::vector<std::uint8_t> held_ CRICKET_GUARDED_BY(mu_);
  bool has_held_ CRICKET_GUARDED_BY(mu_) = false;
  std::uint64_t msg_index_ CRICKET_GUARDED_BY(mu_) = 0;
  bool reset_injected_ CRICKET_GUARDED_BY(mu_) = false;
  FaultStats stats_ CRICKET_GUARDED_BY(mu_);
};

}  // namespace cricket::faultnet
