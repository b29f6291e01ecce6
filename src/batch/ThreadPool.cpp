//===- batch/ThreadPool.cpp - One-queue thread pool -----------------------===//
//
// Part of qcc, a reproduction of "End-to-End Verification of Stack-Space
// Bounds for C Programs" (PLDI 2014).
//
//===----------------------------------------------------------------------===//

#include "batch/ThreadPool.h"

#include "support/FailPoint.h"

#include <algorithm>
#include <atomic>
#include <latch>

using namespace qcc;
using namespace qcc::batch;

ThreadPool::ThreadPool(unsigned NumThreads) {
  for (unsigned I = 0; I != std::max(1u, NumThreads); ++I)
    Threads.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> G(M);
    Stop = true;
  }
  WorkCv.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

void ThreadPool::workerLoop() {
  std::unique_lock<std::mutex> L(M);
  for (;;) {
    WorkCv.wait(L, [this] { return Stop || !Tasks.empty(); });
    // Stop still finishes the queue, so a waiter blocked on a submitted
    // task's completion can never be stranded — cancellation makes tasks
    // fast, the pool makes them run.
    if (Tasks.empty())
      return;
    {
      std::function<void()> Task = std::move(Tasks.front());
      Tasks.pop_front();
      L.unlock();
      Task();
    }
    L.lock();
  }
}

void ThreadPool::submit(std::function<void()> Task) {
  // "pool.submit": delay models a saturated queue (admission tests lean
  // on it to hold a job in flight deterministically); crash models a
  // process dying with work queued. Err/Short are meaningless for an
  // in-memory enqueue and are ignored — the task is always queued.
  (void)failpoint::fire("pool.submit");
  {
    std::lock_guard<std::mutex> G(M);
    Tasks.push_back(std::move(Task));
  }
  WorkCv.notify_one();
}

void ThreadPool::parallelFor(size_t N,
                             const std::function<void(size_t)> &Body) {
  if (N == 0)
    return;
  // The drain tasks reference this frame; the latch counts them, so the
  // caller returns only once none is queued or running.
  size_t Drainers = std::min(Threads.size(), N);
  std::atomic<size_t> Next{0};
  std::latch Done(static_cast<std::ptrdiff_t>(Drainers));
  auto Drain = [&Next, &Done, &Body, N] {
    for (size_t I = Next++; I < N; I = Next++)
      Body(I);
    Done.count_down();
  };
  {
    std::lock_guard<std::mutex> G(M);
    for (size_t T = 0; T != Drainers; ++T)
      Tasks.push_back(Drain);
  }
  WorkCv.notify_all();
  Done.wait();
}
