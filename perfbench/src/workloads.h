#pragma once

// The benchmark's workloads, the thread-budget guard, and the
// per-run correctness check. Every workload is built only from public
// SimOptions fields and is run through sim::run_simulation.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulation.h"

namespace perfbench {

/// What each timed repetition's final state is compared against.
enum class Reference {
  /// Bitwise equal to a first run of the same options; in addition a
  /// `ref_compare_steps` run must lie within `ref_tol` of the same system
  /// on the `ref` comm variant. With Newton on, reverse-force
  /// accumulation order is transport specific, so p2p and ref agree only
  /// to rounding, which chaos amplifies over a long run.
  kRefVariant,
  /// Bitwise equal to the same system on the barrier executor.
  kBarrierExecutor
};

/// Comm threads per rank: every variant the workloads use (`ref`,
/// `6tni_p2p`) drives its transport from the rank's own thread.
inline constexpr int kCommThreads = 1;

/// Bound on |TotEng(last) - TotEng(first)| / |TotEng(first)| over a run
/// (the LJ melt drifts about 0.17% over 1050 steps).
inline constexpr double kMaxRelDrift = 1e-2;

struct Workload {
  std::string name;
  lmp::sim::SimOptions options;  ///< seed is filled in per run
  int warmup_steps = 0;          ///< steps before the timed window opens
  int timed_steps = 0;           ///< steps inside the timed window
  Reference reference = Reference::kRefVariant;
  int ref_compare_steps = 0;     ///< kRefVariant: length of the compared runs
  double ref_tol = 0.0;          ///< kRefVariant: max |dx|, |dv| per component

  int nranks() const;
  long natoms() const;
  int nsteps() const { return warmup_steps + timed_steps; }
  /// ranks x comm threads x DAG workers (async executor only).
  int threads() const;
  /// Options of the run whose final state the timed runs must reproduce.
  lmp::sim::SimOptions reference_options(std::uint64_t seed) const;
};

/// The fixed workload table, in BENCHMARK.json order (which records why
/// each one was chosen).
const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// CPUs this process may run on (the affinity mask, like `nproc`).
int available_cpus();

/// Largest per-component difference in position (minimum image) and
/// velocity between two runs of the workload's system, or infinity when
/// their atom sets differ.
double max_state_difference(const Workload& w, const lmp::sim::JobResult& a,
                            const lmp::sim::JobResult& b);

/// FNV-1a over the tag-sorted final atoms (tag, position, velocity bytes).
std::uint64_t state_hash(const lmp::sim::JobResult& r);

/// Checks one finished run of options `o` (the workload's own or a
/// variant of them): atoms conserved with tags 0..N-1, the
/// intended variant still active and no integrity detection. A run that
/// took steps must also keep its TotEng drift finite and within the
/// workload's bound and, when `expect_hash` is nonzero, end in a final
/// state bitwise equal to the reference. Returns an empty string on
/// success, else the reason.
std::string check_run(const Workload& w, const lmp::sim::SimOptions& o,
                      const lmp::sim::JobResult& r, int nsteps,
                      std::uint64_t expect_hash);

}  // namespace perfbench
