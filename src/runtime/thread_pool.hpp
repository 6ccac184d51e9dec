// Self-scheduling thread pool (the production Scheduler).
//
// Architecture (docs/runtime.md has the full walkthrough):
//
//  * A pool with `threads` lanes owns `threads - 1` persistent worker
//    threads; lane 0 belongs to whichever thread calls run_chunks, so a
//    pool of 1 lane is exactly the SequentialScheduler and spawns
//    nothing.
//  * A region is published under one mutex: (n, grain, total, body), a
//    shared `next` chunk counter reset to 0, and an epoch bump that wakes
//    the workers.  Every lane that joins claims chunks with
//    `next.fetch_add(1)` until the counter passes the chunk count, then
//    leaves.  One counter balances the flat regions the library runs
//    (at most 256 chunks by default_grain, grain 1 for task batches).
//  * A region is republished only after every lane that joined the
//    previous one has left (`active_`, guarded by the mutex), so a worker
//    that wakes late never claims a chunk of the next region with a
//    stale body.
//  * Determinism: the pool only decides WHERE and WHEN a chunk runs;
//    chunk boundaries and all combining order are fixed by the contract
//    in runtime/scheduler.hpp, so outputs are bit-identical at every
//    thread count.
//  * Exceptions: the first chunk exception is captured, the remaining
//    chunks are claimed without running their bodies, and the exception
//    is rethrown on the caller.  The pool stays usable afterwards.
//  * Nested parallelism: run_chunks from inside a worker runs the inner
//    region sequentially inline (no deadlock, no oversubscription).
//    Concurrent external callers are serialized, one region at a time.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/scheduler.hpp"

namespace pslocal::runtime {

class ThreadPool final : public Scheduler {
 public:
  /// A pool with `threads` lanes (0 = std::thread::hardware_concurrency).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool() override;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const override {
    return workers_.size() + 1;
  }

  void run_chunks(std::size_t n, std::size_t grain,
                  const std::function<void(ChunkRange)>& body) override;

 private:
  struct Region {
    std::size_t n = 0;
    std::size_t grain = 1;
    std::size_t total = 0;  // chunk_count(n, grain)
    const std::function<void(ChunkRange)>* body = nullptr;
  };

  void worker_main();
  void work(const Region& region);

  std::mutex start_mu_;  // serializes external run_chunks callers

  // Guarded by mu_.
  std::mutex mu_;
  std::condition_variable wake_cv_;  // epoch_ or stop_ changed
  std::condition_variable idle_cv_;  // active_ dropped to 0
  Region region_;
  std::uint64_t epoch_ = 0;
  std::size_t active_ = 0;  // lanes inside work() for the current region
  bool stop_ = false;
  std::exception_ptr error_;

  // The claim counter; reset under mu_ only while active_ == 0.
  alignas(64) std::atomic<std::size_t> next_{0};
  std::atomic<bool> failed_{false};

  // Lanes 1..threads-1.  Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace pslocal::runtime
