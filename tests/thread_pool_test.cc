// ThreadPool unit tests: ParallelFor completeness independent of
// scheduling order, exception plumbing (including an injected task-layer
// fault), pool reuse across batches, and a many-tiny-tasks stress case
// that the sanitizer CI jobs (ASan/UBSan and TSan) run to catch data
// races in the pool itself.

#include "harness/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/failpoint.h"

namespace topk {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
}

TEST(ThreadPoolTest, ParallelForInlineWhenNoWorkers) {
  ThreadPool pool(0);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(5);
  pool.ParallelFor(ran.size(),
                   [&](size_t i) { ran[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : ran) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, ParallelForRethrowsFirstExceptionAndCompletesRest) {
  ThreadPool pool(2);
  constexpr size_t kN = 64;
  std::vector<std::atomic<int>> hits(kN);
  auto body = [&hits](size_t i) {
    hits[i].fetch_add(1);
    if (i == 13) throw std::runtime_error("iteration 13");
  };
  EXPECT_THROW(pool.ParallelFor(kN, body), std::runtime_error);
  // Every iteration still ran (the pool does not abandon the batch), so
  // the pool is in a clean, reusable state.
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
  // Both helpers survived the throw and serve the next batch.
  std::vector<std::atomic<int>> again(kN);
  pool.ParallelFor(kN, [&again](size_t i) { again[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(again[i].load(), 1) << "i=" << i;
}

TEST(ThreadPoolTest, ReusableAcrossManyBatches) {
  ThreadPool pool(3);
  for (int batch = 0; batch < 50; ++batch) {
    const size_t n = 1 + static_cast<size_t>(batch % 7);
    std::vector<int> out(n, -1);
    pool.ParallelFor(n, [&out, batch](size_t i) {
      out[i] = batch + static_cast<int>(i);
    });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], batch + static_cast<int>(i))
          << "batch=" << batch << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, StressManyTinyTasks) {
  // Many tiny batches, each queueing its helpers and joining them again,
  // exercising queue contention and the wake/join handshake; the
  // sanitizer jobs turn any race in the pool into a failure here.
  ThreadPool pool(4);
  std::atomic<uint64_t> sum{0};
  constexpr uint64_t kBatches = 2000;
  for (uint64_t batch = 0; batch < kBatches; ++batch) {
    pool.ParallelFor(5, [&sum, batch](size_t i) { sum.fetch_add(batch + i); });
  }
  constexpr uint64_t kLooped = 5000;
  pool.ParallelFor(kLooped, [&sum](size_t) { sum.fetch_add(1); });
  EXPECT_EQ(sum.load(),
            5 * kBatches * (kBatches - 1) / 2 + kBatches * 10 + kLooped);
}

TEST(ThreadPoolTest, ParallelForInjectedTaskFaultNoDeadlock) {
  if (!FailpointsCompiledIn()) {
    GTEST_SKIP() << "needs -DTOPK_FAILPOINTS=ON";
  }
  auto& registry = FailpointRegistry::Instance();
  registry.DisarmAll();
  registry.ResetCounts();
  FailpointSpec one_shot;
  one_shot.max_fires = 1;
  registry.Arm("harness.thread_pool.task", one_shot);
  ThreadPool pool(3);
  constexpr size_t kN = 200;
  std::vector<std::atomic<int>> hits(kN);
  // The fault kills one helper's drain before it claims any index, but
  // ParallelFor joins every helper and the caller's own drain (which
  // is never queued, so it is never probed) covers whatever
  // the dead helper would have done: all indices run, exactly once, and
  // the injected error is rethrown instead of hanging the join.
  EXPECT_THROW(pool.ParallelFor(kN,
                                [&hits](size_t i) { hits[i].fetch_add(1); }),
               std::runtime_error);
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
  registry.DisarmAll();
  registry.ResetCounts();

  // With the one-shot spent the pool is clean and fully reusable.
  std::vector<std::atomic<int>> again(kN);
  pool.ParallelFor(kN, [&again](size_t i) { again[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(again[i].load(), 1);
}

}  // namespace
}  // namespace topk
