#include "core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace comdml::core {

namespace {

thread_local bool tls_in_worker = false;

int env_thread_count() {
  if (const char* env = std::getenv("COMDML_NUM_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<int>(std::min<long>(v, 256));
  }
  return hardware_threads();
}

/// Fixed-size worker pool executing one chunked job at a time. Workers
/// idle on a condition variable between jobs; the submitting thread
/// participates in the job, so `threads == 1` never blocks. The submitter
/// waits only for the workers that joined the job: once its own share is
/// done it closes the job, and a worker that wakes after that (a slow
/// wake-up, or a vCPU the host had descheduled) skips it instead of
/// holding up the join.
class Pool {
 public:
  explicit Pool(int threads) : threads_(std::max(1, threads)) {
    workers_.reserve(static_cast<size_t>(threads_ - 1));
    for (int i = 0; i < threads_ - 1; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (auto& w : workers_) w.join();
  }

  [[nodiscard]] int threads() const noexcept { return threads_; }

  void run(int64_t begin, int64_t end, int64_t chunk, const RangeFn& fn) {
    // One job at a time: a second external submitter just runs inline.
    std::unique_lock<std::mutex> job(job_mu_, std::try_to_lock);
    if (!job.owns_lock()) {
      fn(begin, end);
      return;
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      fn_ = &fn;
      end_ = end;
      chunk_ = chunk;
      next_.store(begin, std::memory_order_relaxed);
      error_ = nullptr;
      ++epoch_;
    }
    cv_work_.notify_all();
    // The submitting thread takes chunks too. Mark it as inside a parallel
    // region for the duration: a nested parallel_for from one of its chunks
    // must take the inline path rather than reach run() again — try_lock on
    // the already-owned job_mu_ would be undefined behavior.
    tls_in_worker = true;
    work(fn);
    tls_in_worker = false;
    {
      std::unique_lock<std::mutex> lk(mu_);
      fn_ = nullptr;  // close the job to workers not yet inside it
      cv_done_.wait(lk, [this] { return active_ == 0; });
      if (error_) {
        std::exception_ptr e = error_;
        error_ = nullptr;
        lk.unlock();
        std::rethrow_exception(e);
      }
    }
  }

 private:
  void work(const RangeFn& fn) {
    for (;;) {
      const int64_t lo = next_.fetch_add(chunk_, std::memory_order_relaxed);
      if (lo >= end_) return;
      const int64_t hi = std::min<int64_t>(lo + chunk_, end_);
      try {
        fn(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu_);
        if (!error_) error_ = std::current_exception();
        // Drain the remaining range so the job still terminates.
        next_.store(end_, std::memory_order_relaxed);
      }
    }
  }

  void worker_loop() {
    tls_in_worker = true;
    uint64_t seen = 0;
    for (;;) {
      const RangeFn* fn = nullptr;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_work_.wait(lk, [&] { return stop_ || epoch_ != seen; });
        if (stop_) return;
        seen = epoch_;
        fn = fn_;
        if (fn == nullptr) continue;  // the job closed before we woke
        ++active_;
      }
      work(*fn);
      std::lock_guard<std::mutex> lk(mu_);
      if (--active_ == 0) cv_done_.notify_all();
    }
  }

  const int threads_;
  std::vector<std::thread> workers_;
  std::mutex job_mu_;  // serializes external submitters
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const RangeFn* fn_ = nullptr;
  int64_t end_ = 0;
  int64_t chunk_ = 1;
  std::atomic<int64_t> next_{0};
  int active_ = 0;  // workers inside the current job
  uint64_t epoch_ = 0;
  std::exception_ptr error_;
  bool stop_ = false;
};

std::mutex g_pool_mu;
std::unique_ptr<Pool> g_pool;  // guarded by g_pool_mu

Pool& pool() {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  if (!g_pool) g_pool = std::make_unique<Pool>(env_thread_count());
  return *g_pool;
}

}  // namespace

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int num_threads() { return pool().threads(); }

void set_num_threads(int n) {
  const int want = n >= 1 ? std::min(n, 256) : env_thread_count();
  std::lock_guard<std::mutex> lk(g_pool_mu);
  if (g_pool && g_pool->threads() == want) return;
  g_pool.reset();  // joins old workers
  g_pool = std::make_unique<Pool>(want);
}

bool in_parallel_region() { return tls_in_worker; }

namespace detail {

bool plan_parallel(int64_t range, int64_t grain, int64_t& chunk) {
  if (tls_in_worker || range <= grain) return false;
  Pool& p = pool();
  const int threads = p.threads();
  if (threads <= 1) return false;
  // ~4 chunks per thread for load balance, but never below the grain.
  const int64_t target_chunks =
      std::min<int64_t>(range, static_cast<int64_t>(threads) * 4);
  chunk = std::max(grain, (range + target_chunks - 1) / target_chunks);
  return chunk < range;
}

void parallel_for_erased(int64_t begin, int64_t end, int64_t chunk,
                         const RangeFn& fn) {
  pool().run(begin, end, chunk, fn);
}

}  // namespace detail

}  // namespace comdml::core
