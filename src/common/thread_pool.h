// A fixed-size thread pool with a single shared task queue — deliberately
// work-stealing-free: the PH-tree's parallel entry points (sharded bulk
// load, window-query fan-out) produce a small number of coarse,
// similar-sized tasks (one per shard), so a mutex-protected FIFO drained by
// N workers is both sufficient and easy to reason about under TSan.
#ifndef PHTREE_COMMON_THREAD_POOL_H_
#define PHTREE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace phtree {

/// Fixed pool of `num_threads` workers draining one FIFO of tasks. All
/// methods are thread-safe.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Enqueues one task for asynchronous execution. The task must not
  /// throw: an escaping exception terminates the process (the pool has
  /// nobody to rethrow to).
  void Submit(std::function<void()> task);

  /// Runs `fn(0) .. fn(n - 1)` across the pool and the calling thread,
  /// returning when every index has finished. Indices are handed out from a
  /// shared atomic counter, so uneven task costs balance automatically; the
  /// caller participates, so ParallelFor(n, fn) with a 1-thread pool still
  /// uses two lanes. If calls of `fn` throw, every other index still runs
  /// and the first exception caught is rethrown to the caller. Safe to call
  /// from multiple threads at once and from inside `fn` or a pool task: the
  /// caller drains indices itself and waits only for indices another
  /// thread is already running, so a nested call completes even when
  /// every worker is busy.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Process-wide pool sized to std::thread::hardware_concurrency(),
  /// created on first use. Shared by every PhTreeSharded that is not given
  /// an explicit pool.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace phtree

#endif  // PHTREE_COMMON_THREAD_POOL_H_
