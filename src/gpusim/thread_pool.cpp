#include "gpusim/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace cricket::gpusim {

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0)
    n_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    sim::MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    sim::MutexLock lock(mu_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      sim::MutexLock lock(mu_);
      while (!stopping_ && tasks_.empty()) cv_.wait(mu_);
      if (tasks_.empty()) return;  // stopping and drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for_chunks(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t chunks = std::min(n, size() * 4);
  const std::size_t chunk = (n + chunks - 1) / chunks;

  std::atomic<std::size_t> remaining{0};
  std::exception_ptr first_error;
  sim::Mutex err_mu;
  sim::Mutex done_mu;
  sim::CondVar done_cv;

  std::size_t launched = 0;
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    const std::size_t end = std::min(n, begin + chunk);
    ++launched;
    remaining.fetch_add(1, std::memory_order_relaxed);
    enqueue([&, begin, end] {
      try {
        fn(begin, end);
      } catch (...) {
        sim::MutexLock lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
      // Decrement under done_mu: once the waiter can see zero it returns
      // and destroys done_mu/done_cv, so the last task must be done with
      // them by then.
      sim::MutexLock lock(done_mu);
      if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
        done_cv.notify_all();
    });
  }
  (void)launched;
  {
    sim::MutexLock lock(done_mu);
    while (remaining.load(std::memory_order_acquire) != 0) done_cv.wait(done_mu);
  }
  // All workers are past their err_mu sections once remaining hits zero, but
  // take the lock anyway: the happens-before chain through `remaining` is too
  // subtle to lean on, and the uncontended acquire is free.
  sim::MutexLock lock(err_mu);
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_chunks(n, [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

}  // namespace cricket::gpusim
