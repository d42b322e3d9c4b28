#include "threadpool/task_graph.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "obs/scoped_stage.h"
#include "threadpool/spin_pool.h"

namespace lmp::pool {

int TaskGraph::add(const char* name, std::function<void()> fn,
                   util::Stage stage) {
  if (size_ == static_cast<int>(nodes_.size())) {
    nodes_.push_back(std::make_unique<Node>());
  }
  Node& node = *nodes_[static_cast<std::size_t>(size_)];  // may be reused
  node.name = name;
  node.fn = std::move(fn);
  node.stage = stage;
  node.successors.clear();
  node.indegree0 = 0;
  validated_ = false;
  return size_++;
}

void TaskGraph::depend(int node, int prereq) {
  if (node < 0 || node >= size() || prereq < 0 || prereq >= size()) {
    throw std::out_of_range("TaskGraph::depend: unknown node id");
  }
  if (node == prereq) {
    throw std::invalid_argument("TaskGraph::depend: node depends on itself");
  }
  nodes_[static_cast<std::size_t>(prereq)]->successors.push_back(node);
  nodes_[static_cast<std::size_t>(node)]->indegree0++;
  validated_ = false;
}

void TaskGraph::finish_node(int id) {
  Node& n = *nodes_[static_cast<std::size_t>(id)];
  {
    std::lock_guard lock(mu_);
    order_.push_back(id);
    for (const int s : n.successors) {
      if (nodes_[static_cast<std::size_t>(s)]->indegree.fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        // Keep ready_ sorted descending so pop_back always yields the
        // smallest ready id — the canonical claim order.
        const auto pos = std::lower_bound(ready_.begin(), ready_.end(), s,
                                          std::greater<int>());
        ready_.insert(pos, s);
      }
    }
  }
  done_.fetch_add(1, std::memory_order_acq_rel);
}

void TaskGraph::execute(int id, bool traced) {
  Node& node = *nodes_[static_cast<std::size_t>(id)];
  if (!failed_.load(std::memory_order_acquire)) {
    try {
      // A null name records no span.
      const obs::TraceSpan span(obs::TraceCat::kPool, traced ? node.name : nullptr);
      node.fn();
    } catch (...) {
      // First failure wins; keep counting down so run() terminates.
      bool expected = false;
      if (failed_.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel)) {
        error_ = std::current_exception();
      }
    }
  }
  finish_node(id);
}

void TaskGraph::worker_drain() {
  const int n = size();
  int polls = 0;
  while (done_.load(std::memory_order_acquire) < n) {
    int id = -1;
    {
      std::lock_guard lock(mu_);
      if (!ready_.empty()) {
        id = ready_.back();
        ready_.pop_back();
      }
    }
    if (id < 0) {
      // Nothing ready right now: either peers are still executing
      // predecessors, or we raced the final countdown. Spin politely.
      if (++polls >= 64) {
        polls = 0;
        std::this_thread::yield();
      }
      continue;
    }
    polls = 0;
    execute(id, true);
  }
}

void TaskGraph::drain_timed(util::StageTimer& timer) {
  // Single-threaded: a node is ready until every node has run. Stage
  // spans stand in for node spans (half the rank thread's trace volume).
  while (!ready_.empty()) {
    const util::Stage stage = nodes_[static_cast<std::size_t>(ready_.back())]->stage;
    const obs::ScopedStage booked(timer, stage);
    while (!ready_.empty() &&
           nodes_[static_cast<std::size_t>(ready_.back())]->stage == stage) {
      const int id = ready_.back();
      ready_.pop_back();
      execute(id, false);
    }
  }
}

void TaskGraph::validate() {
  // Kahn's algorithm over the static indegrees: a cycle would make the
  // live run spin forever, so refuse it up front. Runs once per graph
  // mutation, on the live countdowns and ready list (run() resets both).
  const int n = size();
  ready_.clear();
  for (int i = 0; i < n; ++i) {
    Node& node = *nodes_[static_cast<std::size_t>(i)];
    node.indegree.store(node.indegree0, std::memory_order_relaxed);
    if (node.indegree0 == 0) ready_.push_back(i);
  }
  int visited = 0;
  while (!ready_.empty()) {
    const int id = ready_.back();
    ready_.pop_back();
    ++visited;
    for (const int s : nodes_[static_cast<std::size_t>(id)]->successors) {
      if (nodes_[static_cast<std::size_t>(s)]->indegree.fetch_sub(
              1, std::memory_order_relaxed) == 1) {
        ready_.push_back(s);
      }
    }
  }
  if (visited != n) {
    throw std::logic_error("TaskGraph: dependency cycle");
  }
  validated_ = true;
}

void TaskGraph::run(SpinThreadPool* pool, util::StageTimer* timer) {
  const int n = size();
  if (!validated_) validate();
  order_.clear();
  order_.reserve(static_cast<std::size_t>(n));
  ready_.clear();
  done_.store(0, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  error_ = nullptr;
  for (int i = n - 1; i >= 0; --i) {
    Node& node = *nodes_[static_cast<std::size_t>(i)];
    node.indegree.store(node.indegree0, std::memory_order_relaxed);
    if (node.indegree0 == 0) ready_.push_back(i);  // descending by id
  }
  if (n == 0) return;

  if (pool != nullptr && pool->nthreads() > 1) {
    // Static dispatch: every pool worker participates in the drain (a
    // dynamic claim could let one fast thread swallow all the drain
    // slots and serialize the graph).
    pool->parallel_static([this](int) { worker_drain(); });
  } else if (timer != nullptr) {
    drain_timed(*timer);
  } else {
    worker_drain();
  }

  if (error_) std::rethrow_exception(error_);
}

}  // namespace lmp::pool
