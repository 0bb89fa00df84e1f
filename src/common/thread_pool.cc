#include "common/thread_pool.h"

#include <atomic>
#include <exception>
#include <memory>

namespace phtree {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = 1;
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) {
    t.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping_ and drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (n == 1) {
    fn(0);
    return;
  }
  // Shared by the caller and the drain tasks; shared_ptr keeps it alive
  // until the last drain task (which may be dequeued after the caller has
  // already seen completion) lets go of it.
  struct State {
    std::atomic<size_t> next{0};
    std::atomic<size_t> finished{0};
    std::mutex mutex;
    std::condition_variable done_cv;
    std::exception_ptr error;  // the first exception an index threw
  };
  auto state = std::make_shared<State>();
  const size_t total = n;
  auto drain = [state, &fn, total] {
    for (;;) {
      const size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) {
        return;
      }
      // Caught here, because a pool task must not throw; relayed to the
      // caller once every index has finished.
      try {
        fn(i);
      } catch (...) {
        std::lock_guard lock(state->mutex);
        if (state->error == nullptr) {
          state->error = std::current_exception();
        }
      }
      if (state->finished.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          total) {
        std::lock_guard lock(state->mutex);
        state->done_cv.notify_all();
      }
    }
  };
  // One drain task per worker (capped at n - 1: the caller is a lane too).
  // `fn` is captured by reference — safe because this function does not
  // return until all n indices have finished.
  const size_t helpers = std::min(num_threads(), n - 1);
  for (size_t i = 0; i < helpers; ++i) {
    Submit(drain);
  }
  drain();
  std::unique_lock lock(state->mutex);
  state->done_cv.wait(lock, [&] {
    return state->finished.load(std::memory_order_acquire) == total;
  });
  if (state->error != nullptr) {
    std::rethrow_exception(state->error);
  }
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(std::thread::hardware_concurrency());
  return pool;
}

}  // namespace phtree
