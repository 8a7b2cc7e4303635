// Dependency-free parallel execution layer.
//
// The paper's selection strategy is embarrassingly parallel: one
// regression model per algorithm configuration uid, fitted and queried
// independently (Fig. 3). This module provides the fixed-size thread
// pool and the parallel_for helper that the model-bank hot paths
// (Selector::fit, the compiled bank's select_grid that tune::evaluate
// runs, the interpreted reference Selector::predict_all) fan out on.
// Design constraints:
//
//  * Determinism: parallel_for hands out index ranges; callers write
//    results into preallocated slots keyed by index, so results are
//    bit-identical regardless of thread count.
//  * Exception safety: the first exception thrown by the body is
//    captured, remaining chunks are cancelled best-effort, and the
//    exception is rethrown on the calling thread.
//  * Nested use: a parallel_for issued from inside a parallel region
//    runs serially on the calling thread (no deadlock, no
//    oversubscription).
//
// The degree of parallelism is resolved per call: a ScopedThreads
// override (tests/benches) beats the MPICP_THREADS environment variable
// beats the hardware concurrency. The value 0 means "hardware
// concurrency"; 1 selects the serial fallback.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "support/thread_safety.hpp"

namespace mpicp::support {

/// Hardware concurrency, never less than 1.
int hardware_threads();

/// The degree of parallelism parallel_for uses right now: the innermost
/// ScopedThreads override if active, else $MPICP_THREADS if set to a
/// valid value, else the hardware concurrency. 0 (in either source)
/// resolves to hardware_threads(); the result is always >= 1.
int configured_threads();

/// RAII override of configured_threads() — used by tests and benches to
/// pin the thread count regardless of the environment. Overrides nest;
/// the destructor restores the previous value. Not thread-safe against
/// concurrent construction from different threads (intended for
/// top-level harness code).
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads);
  ~ScopedThreads();

  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  int previous_;
};

/// A fixed-size pool of worker threads draining one shared task queue.
/// Public for the tests; library code goes through parallel_for, which
/// uses a lazily grown process-wide shared pool.
class ThreadPool {
 public:
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const;

  /// Enqueue one task. Tasks must not block waiting for other queued
  /// tasks (parallel_for's runners never do).
  void submit(std::function<void()> task);

  /// The process-wide pool, grown on demand so it can serve the largest
  /// thread count requested so far (workers are only ever added, never
  /// removed — the pool stays fixed-size between growth requests).
  static ThreadPool& shared(int min_workers);

 private:
  void spawn_locked(int count) MPICP_REQUIRES(mu_);
  void worker_loop();

  mutable Mutex mu_;
  std::condition_variable_any cv_;
  std::deque<std::function<void()>> queue_ MPICP_GUARDED_BY(mu_);
  std::vector<std::thread> threads_ MPICP_GUARDED_BY(mu_);
  bool stop_ MPICP_GUARDED_BY(mu_) = false;
};

/// True while the calling thread is executing a parallel_for body.
bool in_parallel_region();

/// Run fn(i) for every i in [0, n), distributing contiguous chunks of
/// `chunk` indices over configured_threads() threads (the calling thread
/// participates). Serial fallback when the effective thread count is 1,
/// when there is at most one chunk, or when called from inside another
/// parallel region. Rethrows the first exception thrown by fn on the
/// calling thread after all in-flight chunks have finished.
void parallel_for(std::size_t n, std::size_t chunk,
                  const std::function<void(std::size_t)>& fn);

}  // namespace mpicp::support
