#pragma once

// Per-layer unit costs, measured from outside the program: each function
// calls one layer's public entry points in timed batches (one benchmark
// span per batch) and reports the per-batch unit cost.

#include <cstdint>

#include "report.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

struct LayerInputs {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double budget_s = 0.2;    ///< wall time per measured layer
  double msg_bytes = 0.0;   ///< the workload's mean message size
  bool uses_fabric = false; ///< the workload made fabric puts; else tofu.* reads 0
};

/// md.*: neighbor build, pair kernel (LJ or EAM) and integrator on an
/// fcc block of the workload's density and size with periodic ghosts.
void measure_md(const LayerInputs& in, SpanLog& log, Report& rep);

/// comm.*_gbps: pack_kernels at the workload's mean message size.
void measure_pack(const LayerInputs& in, SpanLog& log, Report& rep);

/// tofu.put_us / tofu.piggyback_us on a two-proc functional fabric.
void measure_fabric(const LayerInputs& in, SpanLog& log, Report& rep);

/// minimpi.allreduce_us / minimpi.sendrecv_us on a 2-rank World.
void measure_minimpi(const LayerInputs& in, SpanLog& log, Report& rep);

/// threadpool.{spin,forkjoin}_dispatch_us on 2-worker pools.
void measure_pools(const LayerInputs& in, SpanLog& log, Report& rep);

/// sim.checkpoint_hash_gbps on a state of the workload's size.
void measure_checkpoint_hash(const LayerInputs& in, SpanLog& log, Report& rep);

}  // namespace perfbench
