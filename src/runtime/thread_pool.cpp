#include "runtime/thread_pool.hpp"

#include <utility>

#include "obs/obs.hpp"
#include "util/timer.hpp"

namespace pslocal::runtime {

namespace {
// Set while a thread is executing pool work (worker thread, or the caller
// inside work()).  Nested run_chunks sees it and runs inline.
thread_local bool tl_inside_pool = false;

// Pool instrumentation (docs/observability.md, "runtime.*").  regions,
// chunks and region_chunks are invariant across thread counts; busy_ns
// describes the actual schedule of this run.
struct PoolMetrics {
  obs::Counter regions{"runtime.regions"};
  obs::Counter chunks{"runtime.chunks"};
  obs::Counter busy_ns{"runtime.busy_ns"};
  obs::Histogram region_chunks{"runtime.region_chunks"};
};

PoolMetrics& metrics() {
  static PoolMetrics m;
  return m;
}
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads - 1);
  for (std::size_t lane = 1; lane < threads; ++lane)
    workers_.emplace_back([this] { worker_main(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_chunks(std::size_t n, std::size_t grain,
                            const std::function<void(ChunkRange)>& body) {
  PSL_EXPECTS(grain > 0);
  if (n == 0) return;
  const std::size_t total = chunk_count(n, grain);
  metrics().regions.add(1);
  metrics().region_chunks.record(total);
  // One lane, one chunk, or a nested call: nothing to parallelize.
  if (workers_.empty() || total == 1 || tl_inside_pool) {
    metrics().chunks.add(total);
    SequentialScheduler().run_chunks(n, grain, body);
    return;
  }
  PSL_OBS_SPAN("runtime.region");

  // Serialize external submitters: one region at a time.
  std::lock_guard<std::mutex> submit(start_mu_);
  const Region region{n, grain, total, &body};
  {
    std::unique_lock<std::mutex> lk(mu_);
    // A worker that woke late for the previous region may still be
    // inside it; resetting next_ under it would hand it a chunk of this
    // region to run with the old body.
    idle_cv_.wait(lk, [&] { return active_ == 0; });
    region_ = region;
    next_ = 0;
    failed_ = false;
    ++epoch_;
    ++active_;  // the caller is lane 0
  }
  wake_cv_.notify_all();

  tl_inside_pool = true;
  work(region);
  tl_inside_pool = false;

  // Every chunk is claimed; wait for the lanes still running one.
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (--active_ > 0) idle_cv_.wait(lk, [&] { return active_ == 0; });
    error = std::exchange(error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_main() {
  tl_inside_pool = true;
  std::uint64_t seen_epoch = 0;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    wake_cv_.wait(lk, [&] { return stop_ || epoch_ != seen_epoch; });
    if (stop_) return;
    seen_epoch = epoch_;
    const Region region = region_;
    ++active_;
    lk.unlock();
    work(region);
    lk.lock();
    if (--active_ == 0) idle_cv_.notify_all();
  }
}

void ThreadPool::work(const Region& region) {
  const std::uint64_t t0 = now_ns();
  std::size_t ran = 0;
  for (;;) {
    const std::size_t chunk = next_.fetch_add(1);
    if (chunk >= region.total) break;
    ++ran;
    if (failed_) continue;
    try {
      const std::size_t begin = chunk * region.grain;
      const std::size_t end =
          begin + region.grain < region.n ? begin + region.grain : region.n;
      (*region.body)(ChunkRange{begin, end, chunk});
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!failed_.exchange(true))
        error_ = std::current_exception();
    }
  }
  metrics().chunks.add(ran);
  metrics().busy_ns.add(now_ns() - t0);
}

}  // namespace pslocal::runtime
