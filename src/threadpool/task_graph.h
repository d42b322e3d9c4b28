#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/tracer.h"
#include "util/timer.h"

namespace lmp::pool {

class SpinThreadPool;

/// Small deterministic DAG scheduler for the step engine (DESIGN.md
/// §12). The same graph is executed every step: `run()` resets the
/// atomic indegrees from the recorded edges and dispatches ready nodes
/// onto the SpinThreadPool workers (or runs them inline when no pool is
/// given).
///
/// Determinism contract: the graph does NOT promise a deterministic
/// execution interleaving under multiple workers — it promises that any
/// interleaving respects every dependency edge, and ready nodes are
/// always claimed in ascending node-id order. Numeric determinism of
/// the step therefore comes from the node bodies (private per-task
/// buffers + a fixed-order reduction node), not from scheduling. A
/// serial run (`run(nullptr)`) executes the unique smallest-id-first
/// topological order: the canonical order of the barrier executor.
///
/// Stage booking: a serial run given a StageTimer books each node to
/// its util::Stage tag, one obs::ScopedStage (stage span, alloc scope)
/// per run of consecutive same-stage nodes, and records those stage
/// spans instead of node spans. A pooled run books nothing.
///
/// Exceptions: the first node body that throws wins; the remaining
/// nodes are cancelled (skipped, but still counted down so the run
/// terminates), every worker quiesces, and `run()` rethrows the
/// original exception_ptr — a CommTimeoutError thrown inside a wait
/// node reaches the failover machinery with its type intact.
class TaskGraph {
 public:
  /// Add a node. `name` must have static storage duration (the tracer
  /// stores the pointer, not a copy); every execution of the node emits
  /// a trace span under that name (category kPool; timed serial runs
  /// excepted, see above). Returns the node id.
  int add(const char* name, std::function<void()> fn,
          util::Stage stage = util::Stage::kPair);

  /// Declare that `node` cannot start until `prereq` has finished.
  /// Both ids must come from add(); edges must be added before run().
  void depend(int node, int prereq);

  int size() const { return size_; }

  /// Remove every node and edge but keep their storage for reuse.
  void clear() { size_ = 0; validated_ = false; }

  /// Execute the graph once. `pool` may be null (serial canonical
  /// order). With a pool, all of its workers drain the shared ready
  /// queue. `timer` books a serial run (see above). Not reentrant; a
  /// graph is owned by one driving thread.
  void run(SpinThreadPool* pool, util::StageTimer* timer = nullptr);

  /// Node ids in the order they finished during the last run() — test
  /// hook for the dependency-respecting property.
  const std::vector<int>& completion_order() const { return order_; }

 private:
  struct Node {
    const char* name = nullptr;
    std::function<void()> fn;
    util::Stage stage = util::Stage::kPair;
    std::vector<int> successors;
    int indegree0 = 0;               ///< static indegree from depend()
    std::atomic<int> indegree{0};    ///< live countdown during a run
  };

  void execute(int id, bool traced);
  void worker_drain();
  void drain_timed(util::StageTimer& timer);
  void finish_node(int id);
  void validate();

  std::vector<std::unique_ptr<Node>> nodes_;  ///< [0, size_) live
  int size_ = 0;
  /// Ready min-queue + completion order, one lock for both (nodes are
  /// few and coarse; contention is not on this path's critical budget).
  std::mutex mu_;
  std::vector<int> ready_;   ///< sorted descending, pop_back = min id
  std::vector<int> order_;
  std::atomic<int> done_{0};
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
  bool validated_ = false;
};

}  // namespace lmp::pool
