// Fixed-size worker pool for parallel query serving.
//
// The pool is created once and reused across query batches: workers block
// on a condition variable between tasks, so an idle pool costs nothing on
// the query path. Its one entry point:
//
//   ParallelFor(n,f) run f(0..n-1) across the pool *and* the calling
//                    thread, return when all are done; the first exception
//                    (if any) is rethrown on the caller. An f taking
//                    (slot, i) also learns which thread runs iteration i:
//                    slot 0 is the caller, 1..W the helpers, and a slot
//                    runs one iteration at a time — per-slot scratch needs
//                    no lock.
//
// A pool constructed with 0 workers degrades to inline execution in
// ParallelFor — that is the exact single-threaded code path, so a
// one-executor frontend pays no queueing overhead.

#ifndef TOPK_HARNESS_THREAD_POOL_H_
#define TOPK_HARNESS_THREAD_POOL_H_

#include <atomic>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/failpoint.h"
#include "core/mutex.h"
#include "core/thread_annotations.h"

namespace topk {

class ThreadPool {
 public:
  /// Spawns `num_workers` threads (0 is valid: ParallelFor runs inline).
  explicit ThreadPool(size_t num_workers) {
    workers_.reserve(num_workers);
    for (size_t i = 0; i < num_workers; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      MutexLock lock(&mutex_);
      stopping_ = true;
    }
    wake_.NotifyAll();
    for (std::thread& worker : workers_) worker.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  /// Runs `fn(i)` — or `fn(slot, i)` — for every i in [0, n). The calling
  /// thread participates as slot 0, so a pool of W workers gives up to
  /// W+1-way parallelism over slots [0, min(W, n - 1)]. Returns after
  /// every iteration finished; if any threw, the first captured exception
  /// is rethrown (the remaining iterations still run to completion, so the
  /// pool is reusable afterwards).
  template <typename F>
  void ParallelFor(size_t n, const F& fn) {
    const auto call = [&fn](size_t slot, size_t i) {
      if constexpr (std::is_invocable_v<const F&, size_t, size_t>) {
        fn(slot, i);
      } else {
        (void)slot;
        fn(i);
      }
    };
    if (n == 0) return;
    if (workers_.empty() || n == 1) {
      for (size_t i = 0; i < n; ++i) call(0, i);
      return;
    }
    auto state = std::make_shared<ParallelForState>();
    auto drain = [state, n, &call](size_t slot) {
      for (size_t i; (i = state->next.fetch_add(1)) < n;) {
        try {
          call(slot, i);
        } catch (...) {
          MutexLock lock(&state->error_mutex);
          if (!state->error) state->error = std::current_exception();
        }
      }
    };
    // Helpers share one index counter with the caller, so whichever thread
    // is free grabs the next iteration (work sharing, not static split).
    const size_t helpers = std::min(workers_.size(), n - 1);
    std::vector<std::future<void>> pending;
    pending.reserve(helpers);
    for (size_t i = 0; i < helpers; ++i) {
      pending.push_back(Submit([drain, i] { drain(i + 1); }));
    }
    drain(0);
    // Join EVERY helper before surfacing any error: rethrowing out of the
    // first get() while later helpers were still draining would race them
    // against a caller that has already unwound `fn` off its stack.
    // Helper futures only carry an exception when the task layer itself
    // failed (e.g. an injected harness.thread_pool.task fault) — drain()
    // captures fn's own exceptions into the shared slot.
    std::exception_ptr task_error;
    for (std::future<void>& f : pending) {
      try {
        f.get();
      } catch (...) {
        if (!task_error) task_error = std::current_exception();
      }
    }
    // The future handshake above is the happens-before edge, but the
    // error slot is a guarded member, so read it under its own lock
    // (uncontended by now) instead of punching an analysis hole.
    std::exception_ptr error;
    {
      MutexLock lock(&state->error_mutex);
      error = state->error;
    }
    if (!error) error = task_error;
    if (error) std::rethrow_exception(error);
  }

 private:
  /// Enqueues one ParallelFor helper and returns a future for its end.
  /// Exceptions escape through the future, never into the worker loop.
  /// Only called with at least one worker (ParallelFor runs inline
  /// otherwise).
  template <typename F>
  std::future<void> Submit(F f) {
    // The failpoint probe lives INSIDE the packaged task so an injected
    // worker failure surfaces through the future exactly like an
    // exception from f itself — never into WorkerLoop (where a throw
    // would std::terminate) and never swallowed where a caller joining
    // the future would hang on a forever-unready result.
    auto probed = [f = std::move(f)]() mutable {
      if (TOPK_FAILPOINT("harness.thread_pool.task")) {
        throw std::runtime_error("injected failure: harness.thread_pool.task");
      }
      f();
    };
    // packaged_task is move-only but std::function wants copyable targets;
    // the shared_ptr wrapper is the standard bridge.
    auto task = std::make_shared<std::packaged_task<void()>>(std::move(probed));
    std::future<void> result = task->get_future();
    {
      MutexLock lock(&mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    wake_.NotifyOne();
    return result;
  }

  struct ParallelForState {
    std::atomic<size_t> next{0};
    Mutex error_mutex;
    std::exception_ptr error TOPK_GUARDED_BY(error_mutex);
  };

  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        MutexLock lock(&mutex_);
        // Explicit predicate loop (no lambda-predicate overload): the
        // guarded reads stay in this scope, where the analysis can see
        // the capability held by `lock`.
        while (!stopping_ && queue_.empty()) wake_.Wait(mutex_);
        if (queue_.empty()) return;  // stopping_ and drained
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  Mutex mutex_;
  CondVar wake_;
  std::deque<std::function<void()>> queue_ TOPK_GUARDED_BY(mutex_);
  bool stopping_ TOPK_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace topk

#endif  // TOPK_HARNESS_THREAD_POOL_H_
