#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "threadpool/forkjoin.h"
#include "threadpool/spin_pool.h"

namespace lmp::pool {
namespace {

TEST(SpinThreadPool, ParallelCoversAllWorkExactlyOnce) {
  SpinThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel(100, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SpinThreadPool, ParallelSum) {
  SpinThreadPool pool(3);
  std::atomic<long> sum{0};
  pool.parallel(1000, [&](int i) { sum += i; });
  EXPECT_EQ(sum.load(), 999L * 1000 / 2);
}

TEST(SpinThreadPool, ReusableAcrossManyGenerations) {
  SpinThreadPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.parallel(8, [&](int) { total++; });
  }
  EXPECT_EQ(total.load(), 1600);
}

TEST(SpinThreadPool, StaticRunsEachThreadOnce) {
  SpinThreadPool pool(6);
  std::vector<std::atomic<int>> per_thread(6);
  pool.parallel_static([&](int t) { per_thread[static_cast<std::size_t>(t)]++; });
  for (const auto& c : per_thread) EXPECT_EQ(c.load(), 1);
}

TEST(SpinThreadPool, StaticThreadIdsDistinct) {
  SpinThreadPool pool(4);
  std::vector<std::thread::id> ids(4);
  pool.parallel_static([&](int t) { ids[static_cast<std::size_t>(t)] = std::this_thread::get_id(); });
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
}

TEST(SpinThreadPool, SingleThreadPoolWorks) {
  SpinThreadPool pool(1);
  std::atomic<int> n{0};
  pool.parallel(10, [&](int) { n++; });
  EXPECT_EQ(n.load(), 10);
  pool.parallel_static([&](int t) { EXPECT_EQ(t, 0); });
}

TEST(SpinThreadPool, EmptyWorkIsNoop) {
  SpinThreadPool pool(2);
  pool.parallel(0, [&](int) { FAIL(); });
}

TEST(SpinThreadPool, InvalidSizeThrows) {
  EXPECT_THROW(SpinThreadPool(0), std::invalid_argument);
}

TEST(SpinThreadPool, UnbalancedItemsSelfBalance) {
  SpinThreadPool pool(4);
  std::atomic<long> sum{0};
  pool.parallel(64, [&](int i) {
    // Item cost varies wildly; dynamic claiming must still finish.
    volatile long x = 0;
    for (int k = 0; k < i * 1000; ++k) x = x + k;
    sum += i;
    (void)x;
  });
  EXPECT_EQ(sum.load(), 63L * 64 / 2);
}

TEST(ForkJoinPool, ParallelRunsAllThreads) {
  ForkJoinPool pool(4);
  std::vector<std::atomic<int>> per_thread(4);
  pool.parallel([&](int t) { per_thread[static_cast<std::size_t>(t)]++; });
  for (const auto& c : per_thread) EXPECT_EQ(c.load(), 1);
}

TEST(ForkJoinPool, ParallelForCoversRange) {
  ForkJoinPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.parallel_for(50, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ForkJoinPool, RepeatedRegions) {
  ForkJoinPool pool(2);
  std::atomic<int> total{0};
  for (int r = 0; r < 100; ++r) pool.parallel([&](int) { total++; });
  EXPECT_EQ(total.load(), 200);
}

TEST(ForkJoinPool, SingleThreadInline) {
  ForkJoinPool pool(1);
  std::atomic<int> n{0};
  pool.parallel([&](int t) {
    EXPECT_EQ(t, 0);
    n++;
  });
  EXPECT_EQ(n.load(), 1);
}

TEST(ForkJoinPool, EmptyRangeNoop) {
  ForkJoinPool pool(2);
  pool.parallel_for(0, [&](int) { FAIL(); });
}

TEST(ForkJoinPool, InvalidSizeThrows) {
  EXPECT_THROW(ForkJoinPool(0), std::invalid_argument);
}

TEST(SpinThreadPool, PerWorkerMetricsRecorded) {
  // Beyond the aggregated pool.dispatch_wait_ns / pool.run_ns roll-ups,
  // each worker records its own dispatch-wait and run time so a stuck
  // or starved worker is visible in the latency table.
  obs::set_metrics_enabled(true);
  struct MetricsOff {
    ~MetricsOff() { obs::set_metrics_enabled(false); }
  } guard;

  SpinThreadPool pool(3);
  auto& reg = obs::MetricsRegistry::instance();
  const std::uint64_t run0 = reg.histogram("pool.run_ns.w0").count();
  const std::uint64_t run1 = reg.histogram("pool.run_ns.w1").count();
  const std::uint64_t run2 = reg.histogram("pool.run_ns.w2").count();
  const std::uint64_t wait1 = reg.histogram("pool.dispatch_wait_ns.w1").count();

  for (int i = 0; i < 5; ++i) pool.parallel_static([](int) {});

  // Worker 0 is the caller: it records run time but never dispatch-waits.
  EXPECT_EQ(reg.histogram("pool.run_ns.w0").count(), run0 + 5);
  EXPECT_EQ(reg.histogram("pool.run_ns.w1").count(), run1 + 5);
  EXPECT_EQ(reg.histogram("pool.run_ns.w2").count(), run2 + 5);
  EXPECT_EQ(reg.histogram("pool.dispatch_wait_ns.w1").count(), wait1 + 5);
}

/// Pins the calling thread to one CPU until destroyed, then restores its
/// previous affinity. A no-op off Linux or for cpu < 0.
class CallerPin {
 public:
  /// The k-th CPU this thread may run on, or -1.
  static int allowed_cpu(int k) {
#if defined(__linux__)
    cpu_set_t set;
    if (pthread_getaffinity_np(pthread_self(), sizeof set, &set) != 0) return -1;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set) && k-- == 0) return c;
    }
#endif
    (void)k;
    return -1;
  }

  explicit CallerPin(int cpu) {
#if defined(__linux__)
    if (cpu < 0 || pthread_getaffinity_np(pthread_self(), sizeof saved_, &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0;
#else
    (void)cpu;
#endif
  }
  ~CallerPin() {
#if defined(__linux__)
    if (pinned_) pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_);
#endif
  }
  CallerPin(const CallerPin&) = delete;
  CallerPin& operator=(const CallerPin&) = delete;

 private:
#if defined(__linux__)
  cpu_set_t saved_;
  bool pinned_ = false;
#endif
};

TEST(PoolOverheads, SpinPoolDispatchCheaperThanForkJoin) {
  // The paper's Sec. 3.3 motivation: pool dispatch (1.1 us on A64FX)
  // beats OpenMP fork-join (5.8 us). The ordering only shows when the
  // spinning workers actually own cores; on an oversubscribed host the
  // spin pool's yield loop is at the scheduler's mercy.
  if (std::thread::hardware_concurrency() < 4) {
    GTEST_SKIP() << "needs >= 4 hardware threads to measure spin dispatch";
  }
  // Give each pool's worker a core of its own, as the paper's pool has,
  // and keep the caller on a third: each pool starts while the caller is
  // pinned to that pool's CPU, so its worker inherits it. Left alone, the
  // scheduler may keep a new worker on its creator's CPU; a spin worker
  // sharing the caller's core only runs when the caller yields, and a
  // fork-join worker sharing the spin worker's core competes with its
  // busy-wait, so either side would measure the scheduler.
  std::unique_ptr<SpinThreadPool> spin;
  std::unique_ptr<ForkJoinPool> fj;
  {
    const CallerPin on_spin_cpu(CallerPin::allowed_cpu(0));
    spin = std::make_unique<SpinThreadPool>(2);
  }
  {
    const CallerPin on_fj_cpu(CallerPin::allowed_cpu(2));
    fj = std::make_unique<ForkJoinPool>(2);
  }
  const CallerPin on_caller_cpu(CallerPin::allowed_cpu(1));
  const auto spin_region = [&] { spin->parallel_static([](int) {}); };
  const auto fj_region = [&] { fj->parallel([](int) {}); };
  // Warm up.
  for (int i = 0; i < 10; ++i) {
    spin_region();
    fj_region();
  }
  // Interleaved batches, best batch per side: both pools are measured
  // under the same host conditions, so a burst of load from elsewhere
  // cannot land on one side only.
  constexpr int kBatches = 10;
  constexpr int kRegions = 30;
  const auto batch_us = [](auto&& region) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kRegions; ++i) region();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(t1 - t0).count() / kRegions;
  };
  double spin_us = std::numeric_limits<double>::infinity();
  double fj_us = std::numeric_limits<double>::infinity();
  for (int b = 0; b < kBatches; ++b) {
    // Alternate which side goes first.
    if (b % 2 == 0) {
      spin_us = std::min(spin_us, batch_us(spin_region));
      fj_us = std::min(fj_us, batch_us(fj_region));
    } else {
      fj_us = std::min(fj_us, batch_us(fj_region));
      spin_us = std::min(spin_us, batch_us(spin_region));
    }
  }
  EXPECT_LT(spin_us, fj_us) << "spin " << spin_us << " us, fork-join " << fj_us << " us";
}

}  // namespace
}  // namespace lmp::pool
