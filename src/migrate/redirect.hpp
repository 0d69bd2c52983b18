// The client-visible half of a migration: a redirecting connection factory.
//
// Clients are constructed with a reconnect factory (ClientConfig::reconnect
// / rpc::ClientOptions::reconnect). Pointing that factory at a
// RedirectingConnector makes it a level of indirection the control plane
// can flip: the MigrationCoordinator atomically swaps the dial target at
// commit time, and the very next reconnect — typically triggered by the
// source server's kMigrating reply — lands on the target server, where the
// client's xid re-submission and the migrated duplicate-request cache
// preserve exactly-once execution. This stands in for the service-discovery
// update a production fleet would push.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "rpc/transport.hpp"
#include "sim/annotations.hpp"

namespace cricket::migrate {

class RedirectingConnector {
 public:
  using Factory = std::function<std::unique_ptr<rpc::Transport>()>;

  explicit RedirectingConnector(Factory initial)
      : current_(std::move(initial)) {}

  /// Atomically flips where subsequent dials land. Safe against concurrent
  /// dial() calls from clients reconnecting on their callers' threads.
  void set_target(Factory target) CRICKET_EXCLUDES(mu_) {
    sim::MutexLock lock(mu_);
    current_ = std::move(target);
    ++flips_;
  }

  [[nodiscard]] std::unique_ptr<rpc::Transport> dial() CRICKET_EXCLUDES(mu_) {
    Factory factory;
    {
      sim::MutexLock lock(mu_);
      factory = current_;
    }
    return factory ? factory() : nullptr;
  }

  /// Hand this to ClientConfig::reconnect / ClientOptions::reconnect. The
  /// connector must outlive every client holding the returned factory.
  [[nodiscard]] Factory factory() {
    return [this] { return dial(); };
  }

  [[nodiscard]] std::uint64_t flips() const CRICKET_EXCLUDES(mu_) {
    sim::MutexLock lock(mu_);
    return flips_;
  }

 private:
  mutable sim::Mutex mu_;
  Factory current_ CRICKET_GUARDED_BY(mu_);
  std::uint64_t flips_ CRICKET_GUARDED_BY(mu_) = 0;
};

}  // namespace cricket::migrate
