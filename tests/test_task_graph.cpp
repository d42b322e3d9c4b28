#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "threadpool/spin_pool.h"
#include "threadpool/task_graph.h"
#include "util/timer.h"

namespace lmp::pool {
namespace {

/// Index of `id` in the completion order (-1 if absent).
int pos_of(const std::vector<int>& order, int id) {
  const auto it = std::find(order.begin(), order.end(), id);
  return it == order.end() ? -1 : static_cast<int>(it - order.begin());
}

TEST(TaskGraph, EmptyGraphRuns) {
  TaskGraph g;
  g.run(nullptr);
  EXPECT_EQ(g.size(), 0);
  EXPECT_TRUE(g.completion_order().empty());

  SpinThreadPool pool(3);
  g.run(&pool);
  EXPECT_TRUE(g.completion_order().empty());
}

TEST(TaskGraph, DiamondRespectsDependencies) {
  // a -> {b, c} -> d, run many times on a real pool: b and c may finish
  // in either order, but a is always first and d always last.
  TaskGraph g;
  std::atomic<int> calls{0};
  const int a = g.add("t.a", [&] { calls++; });
  const int b = g.add("t.b", [&] { calls++; });
  const int c = g.add("t.c", [&] { calls++; });
  const int d = g.add("t.d", [&] { calls++; });
  g.depend(b, a);
  g.depend(c, a);
  g.depend(d, b);
  g.depend(d, c);

  SpinThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    calls = 0;
    g.run(&pool);
    EXPECT_EQ(calls.load(), 4);
    const std::vector<int>& ord = g.completion_order();
    ASSERT_EQ(ord.size(), 4u);
    EXPECT_EQ(pos_of(ord, a), 0);
    EXPECT_EQ(pos_of(ord, d), 3);
    EXPECT_LT(pos_of(ord, a), pos_of(ord, b));
    EXPECT_LT(pos_of(ord, a), pos_of(ord, c));
    EXPECT_LT(pos_of(ord, b), pos_of(ord, d));
    EXPECT_LT(pos_of(ord, c), pos_of(ord, d));
  }
}

TEST(TaskGraph, SerialRunIsCanonicalTopologicalOrder) {
  // With no pool the drain claims ready nodes in ascending id order —
  // the canonical order the barrier executor would use.
  TaskGraph g;
  const int n0 = g.add("t", [] {});
  const int n1 = g.add("t", [] {});
  const int n2 = g.add("t", [] {});
  const int n3 = g.add("t", [] {});
  const int n4 = g.add("t", [] {});
  g.depend(n0, n4);  // n4 must come before n0 despite the id order
  g.depend(n2, n1);
  g.run(nullptr);
  const std::vector<int> expect = {n1, n2, n3, n4, n0};
  EXPECT_EQ(g.completion_order(), expect);
}

TEST(TaskGraph, DeterministicUnderShuffledWorkerTiming) {
  // Chain-of-layers graph whose nodes sleep pseudo-random amounts
  // (seeded, different per round): whatever order workers claim nodes,
  // every edge holds in the completion order and the canonically-reduced
  // result is identical across rounds.
  std::mt19937 rng(20260808u);
  std::uniform_int_distribution<int> jitter(0, 300);

  long canonical = -1;
  for (int round = 0; round < 20; ++round) {
    TaskGraph g;
    std::vector<long> cell(12, 0);
    std::vector<int> layer0, layer1;
    for (int i = 0; i < 6; ++i) {
      const int us = jitter(rng);
      layer0.push_back(g.add("t.l0", [&cell, i, us] {
        std::this_thread::sleep_for(std::chrono::microseconds(us));
        cell[static_cast<std::size_t>(i)] = i + 1;
      }));
    }
    for (int i = 0; i < 6; ++i) {
      const int us = jitter(rng);
      layer1.push_back(g.add("t.l1", [&cell, i, us] {
        std::this_thread::sleep_for(std::chrono::microseconds(us));
        cell[static_cast<std::size_t>(6 + i)] =
            10 * cell[static_cast<std::size_t>(i)];
      }));
      g.depend(layer1.back(), layer0[static_cast<std::size_t>(i)]);
    }
    std::vector<long> reduced(1, 0);
    const int join = g.add("t.join", [&] {
      // Fixed-order reduce: the determinism comes from here, not from
      // which worker finished first.
      for (const long v : cell) reduced[0] += v;
    });
    for (const int n : layer1) g.depend(join, n);

    SpinThreadPool pool(4);
    g.run(&pool);

    const std::vector<int>& ord = g.completion_order();
    ASSERT_EQ(ord.size(), 13u);
    for (int i = 0; i < 6; ++i) {
      EXPECT_LT(pos_of(ord, layer0[static_cast<std::size_t>(i)]),
                pos_of(ord, layer1[static_cast<std::size_t>(i)]));
      EXPECT_LT(pos_of(ord, layer1[static_cast<std::size_t>(i)]),
                pos_of(ord, join));
    }
    if (canonical < 0) canonical = reduced[0];
    EXPECT_EQ(reduced[0], canonical);
  }
}

TEST(TaskGraph, ExceptionPropagatesWithType) {
  TaskGraph g;
  std::atomic<int> after{0};
  const int boom = g.add("t.boom", [] {
    throw std::domain_error("node failed");
  });
  const int next = g.add("t.next", [&] { after++; });
  g.depend(next, boom);

  SpinThreadPool pool(2);
  EXPECT_THROW(g.run(&pool), std::domain_error);
  // The dependent node was cancelled, not run.
  EXPECT_EQ(after.load(), 0);

  // The graph is reusable after a failure — and fails the same way.
  EXPECT_THROW(g.run(nullptr), std::domain_error);
}

TEST(TaskGraph, CycleIsRejected) {
  TaskGraph g;
  const int a = g.add("t.a", [] {});
  const int b = g.add("t.b", [] {});
  g.depend(a, b);
  g.depend(b, a);
  EXPECT_THROW(g.run(nullptr), std::logic_error);
}

TEST(TaskGraph, BadIdsAreRejected) {
  TaskGraph g;
  const int a = g.add("t.a", [] {});
  EXPECT_THROW(g.depend(a, a), std::invalid_argument);
  EXPECT_THROW(g.depend(a, 7), std::out_of_range);
  EXPECT_THROW(g.depend(-1, a), std::out_of_range);
}

TEST(TaskGraph, ReusableAcrossEpochs) {
  // The simulation reruns one graph every step of a neighbor epoch.
  TaskGraph g;
  int counter = 0;
  const int a = g.add("t.a", [&] { counter++; });
  const int b = g.add("t.b", [&] { counter++; });
  g.depend(b, a);
  SpinThreadPool pool(2);
  for (int step = 0; step < 100; ++step) g.run(&pool);
  EXPECT_EQ(counter, 200);
}

TEST(TaskGraph, ClearedGraphRebuildsWithNewShape) {
  // The simulation rebuilds its step graph in place when an epoch's
  // group shape changes: reused nodes must drop their old bodies, edges
  // and indegrees.
  TaskGraph g;
  std::vector<int> ran;
  for (int i = 0; i < 4; ++i) g.add("t.old", [&ran] { ran.push_back(-1); });
  g.depend(1, 0);
  g.depend(3, 2);
  g.run(nullptr);
  ASSERT_EQ(ran.size(), 4u);

  g.clear();
  EXPECT_EQ(g.size(), 0);
  const int a = g.add("t.a", [&ran] { ran.push_back(0); });
  const int b = g.add("t.b", [&ran] { ran.push_back(1); });
  const int c = g.add("t.c", [&ran] { ran.push_back(2); });
  // b waits for c: a, c, b in canonical order. A stale 0 -> 1 edge
  // would release b after a, before c.
  g.depend(b, c);
  ran.clear();
  g.run(nullptr);
  EXPECT_EQ(g.size(), 3);
  EXPECT_EQ(ran, (std::vector<int>{0, 2, 1}));
  EXPECT_EQ(g.completion_order(), (std::vector<int>{a, c, b}));
}

TEST(TaskGraph, SerialRunBooksEachNodeToItsStage) {
  // The barrier executor's forward exchange runs as Comm-tagged nodes
  // between Pair-tagged ones; a timed serial run must charge each node's
  // wall time to its own stage, never the whole run to one stage.
  TaskGraph g;
  const auto sleep_ms = [](int ms) {
    return [ms] { std::this_thread::sleep_for(std::chrono::milliseconds(ms)); };
  };
  const int fwd = g.add("t.fwd", sleep_ms(2), util::Stage::kComm);
  const int wait = g.add("t.wait", sleep_ms(2), util::Stage::kComm);
  const int pair = g.add("t.pair", sleep_ms(3), util::Stage::kPair);
  g.depend(wait, fwd);
  g.depend(pair, wait);
  util::StageTimer timer;
  g.run(nullptr, &timer);
  EXPECT_GE(timer.get(util::Stage::kComm), 0.004);
  EXPECT_GE(timer.get(util::Stage::kPair), 0.003);
  EXPECT_EQ(timer.get(util::Stage::kNeigh), 0.0);
  EXPECT_EQ(timer.get(util::Stage::kModify), 0.0);
  EXPECT_EQ(timer.get(util::Stage::kOther), 0.0);

  // A pooled run overlaps stages and books nothing.
  util::StageTimer untouched;
  SpinThreadPool pool(2);
  g.run(&pool, &untouched);
  EXPECT_EQ(untouched.total(), 0.0);
}

}  // namespace
}  // namespace lmp::pool
