#pragma once

#include "obs/alloc_tracker.h"
#include "obs/tracer.h"
#include "util/timer.h"

namespace lmp::obs {

/// RAII helper: measures a scope's wall time into a util::StageTimer
/// stage. Doubles as a trace span: when the sim trace category is
/// enabled the same scope appears as a "stage:*" span on the owning
/// thread's track, so every timing site is a tracing site with no edits.
/// It is also an allocation-attribution scope — with LMP_ALLOC_TRACE on,
/// heap traffic inside the stage lands on the same "stage:*" label in the
/// alloc tracker, which is how the per-stage memory columns and the
/// zero-alloc guard's attribution table get their data for free.
class ScopedStage {
 public:
  ScopedStage(util::StageTimer& t, util::Stage s)
      : timer_(t),
        stage_(s),
        span_(TraceCat::kSim, util::stage_trace_name(s)),
        alloc_scope_(util::stage_trace_name(s)) {}
  ~ScopedStage() { timer_.add(stage_, watch_.seconds()); }
  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

 private:
  util::StageTimer& timer_;
  util::Stage stage_;
  TraceSpan span_;
  AllocScope alloc_scope_;
  util::WallTimer watch_;
};

}  // namespace lmp::obs
