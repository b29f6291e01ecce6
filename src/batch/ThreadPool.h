//===- batch/ThreadPool.h - One-queue thread pool ---------------*- C++-*-===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size thread pool with one FIFO queue of tasks, shared by the
/// batch engine and the qccd daemon.
///
/// Long-lived front ends (the daemon) enqueue one task per request with
/// `submit`. A closed index range (`runBatch`'s job list) goes through
/// `parallelFor`, which enqueues min(workers, N) drain tasks on the same
/// queue: each takes indices from one shared atomic counter until the
/// range is exhausted. Jobs are whole translation units that run for
/// milliseconds and share nothing, so one `fetch_add` per job keeps every
/// worker busy, a heavy file next to many small ones included.
///
//===----------------------------------------------------------------------===//

#ifndef QCC_BATCH_THREADPOOL_H
#define QCC_BATCH_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qcc {
namespace batch {

class ThreadPool {
public:
  /// Spawns \p Threads workers (at least one).
  explicit ThreadPool(unsigned Threads);
  /// Finishes every submitted task, then joins the workers (the shutdown
  /// discipline: cancel the work's supervisors first, then destroy the
  /// pool — a cancelled task drains at its next poll point).
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues one task and returns immediately. Tasks start in FIFO
  /// order. A task must not throw.
  void submit(std::function<void()> Task);

  /// Runs Body(I) exactly once for every I in [0, N) on the pool's
  /// workers, and returns only after every task it enqueued has finished.
  /// Body must be safe to invoke concurrently on distinct indices, and
  /// must not throw. Must not be called from a pool task: the caller
  /// blocks on tasks queued behind it, so a pool whose every worker
  /// waits there deadlocks.
  void parallelFor(size_t N, const std::function<void(size_t)> &Body);

private:
  void workerLoop();

  std::mutex M;
  std::condition_variable WorkCv;
  std::deque<std::function<void()>> Tasks; ///< Guarded by M.
  bool Stop = false;                       ///< Guarded by M.
  std::vector<std::thread> Threads;
};

} // namespace batch
} // namespace qcc

#endif // QCC_BATCH_THREADPOOL_H
