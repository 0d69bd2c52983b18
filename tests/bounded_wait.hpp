// Bounded waits for tests whose failure mode is a hang.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <thread>

namespace cricket::testutil {

/// Runs `body` on its own thread and fails the test if it has not returned
/// within `limit`. A thread blocked forever can not be reclaimed, so the
/// test binary then exits at once instead of hanging ctest.
template <typename Body>
void within(std::chrono::seconds limit, Body&& body) {
  std::promise<void> done;
  auto finished = done.get_future();
  std::thread runner([&] {
    body();
    done.set_value();
  });
  if (finished.wait_for(limit) != std::future_status::ready) {
    ADD_FAILURE() << "still blocked after " << limit.count() << " s";
    std::fflush(nullptr);
    std::_Exit(1);
  }
  runner.join();
}

}  // namespace cricket::testutil
