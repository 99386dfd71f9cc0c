// Shared parallel-compute subsystem: a lazily-initialized global thread
// pool behind a parallel_for(begin, end, grain, fn) API.
//
// Design rules that every caller relies on:
//  - fn(lo, hi) is invoked on half-open sub-ranges that exactly tile
//    [begin, end); each index is visited exactly once.
//  - Nested parallel_for calls (a kernel invoked from inside a pool task)
//    run inline on the calling worker, so kernels can be parallelized
//    unconditionally without risking pool deadlock or oversubscription.
//  - The partitioning may vary with the thread count, so kernels must keep
//    each output element's computation independent of the partition (write
//    disjoint outputs, fix any reduction order). Under that discipline
//    results are bit-identical for every thread count.
//  - Exceptions thrown by fn are captured and rethrown on the calling
//    thread (first one wins).
//  - The calling thread takes chunks too and then waits only for the
//    workers that joined; a worker that wakes after every chunk is gone
//    never holds up the return.
//
// The thread count defaults to the COMDML_NUM_THREADS environment variable
// when set, else std::thread::hardware_concurrency().
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>

namespace comdml::core {

/// Chunked loop body: processes the half-open index range [lo, hi).
using RangeFn = std::function<void(int64_t lo, int64_t hi)>;

/// Number of threads parallel_for will use (>= 1). First call initializes
/// from COMDML_NUM_THREADS / hardware_concurrency.
[[nodiscard]] int num_threads();

/// Override the pool size. `n >= 1` forces that many threads; `n == 0`
/// re-reads COMDML_NUM_THREADS (falling back to the hardware count).
/// Safe to call between parallel regions; joins and restarts the pool.
void set_num_threads(int n);

/// Hardware concurrency as reported by the standard library (>= 1).
[[nodiscard]] int hardware_threads();

/// True when called from inside a pool worker (a nested parallel region).
[[nodiscard]] bool in_parallel_region();

namespace detail {

/// Decides whether a loop of `range` indices fans out to the pool; on true
/// `chunk` receives the per-task chunk size. False means run inline.
[[nodiscard]] bool plan_parallel(int64_t range, int64_t grain,
                                 int64_t& chunk);

/// Pool fan-out path behind plan_parallel (type-erased).
void parallel_for_erased(int64_t begin, int64_t end, int64_t chunk,
                         const RangeFn& fn);

}  // namespace detail

/// Apply `fn` over [begin, end) in chunks of at least `grain` indices,
/// using the global pool. Runs inline when the range is small, the pool
/// has one thread, or the call is nested inside another parallel region —
/// and only type-erases `fn` (a possible heap allocation) on the actual
/// fan-out path, so inline invocations are allocation-free.
template <typename F>
void parallel_for(int64_t begin, int64_t end, int64_t grain, const F& fn) {
  if (begin >= end) return;
  int64_t chunk = 0;
  if (!detail::plan_parallel(end - begin, std::max<int64_t>(1, grain),
                             chunk)) {
    fn(begin, end);
    return;
  }
  // Wrap by reference: the wrapper's one-pointer capture fits the
  // std::function small-buffer, so even fan-out does not allocate.
  detail::parallel_for_erased(begin, end, chunk, std::cref(fn));
}

}  // namespace comdml::core
