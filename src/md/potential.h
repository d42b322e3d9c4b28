#pragma once

#include <vector>

#include "md/atoms.h"
#include "md/force_split.h"
#include "md/neighbor.h"

namespace lmp::md {

/// This rank's share of global energy/virial sums (reduced by thermo).
struct ForceResult {
  double energy = 0.0;  ///< potential energy contribution
  double virial = 0.0;  ///< sum over pairs of r_ij . f_ij (scalar virial)
};

/// Mid-force-computation ghost communication, implemented by the comm
/// layer. The EAM potential needs two of these per step (paper Sec. 4):
/// a reverse-add of ghost electron densities and a forward copy of the
/// embedding-energy derivatives.
class GhostDataComm {
 public:
  virtual ~GhostDataComm() = default;

  /// Add each ghost atom's value into its owner's entry and zero the
  /// ghost entry. `per_atom` has `ntotal` entries.
  virtual void reverse_add(double* per_atom) = 0;

  /// Copy each owned atom's value to all its ghost copies on other ranks.
  virtual void forward(double* per_atom) = 0;
};

/// A pair-style potential. `newton` selects half-list (true, forces on
/// both partners including ghosts, reverse-communicated afterwards by the
/// caller) or full-list (false, forces on i only) evaluation.
///
/// Every force evaluation is a split evaluation: a sequence of per-group
/// tasks the step DAG can schedule against in-flight ghost exchange.
///
///   split_begin(atoms, list, newton, groups)
///   for pass in [0, split_passes()):
///     split_group(pass, g)   for every group   (any order / concurrent)
///     split_join(pass, ghost_comm)             (serial, canonical)
///   result = split_finish()
///
/// Each split_group call first zeroes its own group's private
/// accumulation buffer over the group's footprint (ForceGroup::footprint:
/// the indices its kernels may write this epoch), then writes only that
/// buffer (never atoms.f()), so concurrent groups cannot race and the
/// zeroing runs inside the group's task. The force pass's join adds each
/// buffer's footprint entries in ascending group order — a fixed
/// arithmetic order, which is what makes the barrier and async executors
/// bitwise-identical; entries outside a footprint are stale and never
/// read. Interior groups (mask 0) read no ghost data in pass 0 and may
/// run before the forward exchange completes; border groups may run as
/// soon as every direction they read (group_reads_dir) has landed.
/// The simulation runs the sequence as nodes of its step DAG; compute()
/// runs it over one group holding every local atom, footprint [0, ntotal).
///
/// The base class owns the bound inputs, the per-group force buffers and
/// their canonical reduction; a potential supplies its row kernels
/// (split_group) and any mid-pass step (split_join before the last pass).
class Potential {
 public:
  virtual ~Potential() = default;

  virtual double cutoff() const = 0;

  /// Number of split passes: 1 for plain pair styles, 2 for EAM (density
  /// then force, with the mid-pair comm inside split_join(0)).
  virtual int split_passes() const = 0;

  /// Bind one evaluation's inputs and size the per-group buffers (they
  /// are not filled: each split_group zeroes its own footprint). `groups`
  /// must outlive the evaluation and carry footprints built for `atoms`
  /// (ForceGroups::rebuild, per neighbor epoch); std::logic_error if not.
  void split_begin(Atoms& atoms, const NeighborList& list, bool newton,
                   const ForceGroups* groups);

  /// Zero group `g`'s private buffer for pass `pass` over its footprint,
  /// then compute the group's contribution into it. Thread-safe across
  /// distinct groups of the same pass.
  virtual void split_group(int pass, int g) = 0;

  /// Finish pass `pass`: the last pass reduces the force buffers
  /// (reduce_forces); earlier passes run the potential's mid-pass step
  /// (EAM rho reduction, reverse-add, embedding, fp forward). Serial.
  virtual void split_join(int pass, GhostDataComm* ghost_comm) = 0;

  /// Energy/virial of the completed evaluation (summed per-group in
  /// ascending group order).
  ForceResult split_finish() const { return stotal_; }

  /// The whole split sequence over one group holding every local atom.
  /// Forces are added to atoms.f(); the caller zeroes it first.
  ForceResult compute(Atoms& atoms, const NeighborList& list, bool newton,
                      GhostDataComm* ghost_comm);

 protected:
  /// Size the potential's own per-evaluation scratch (its per-group
  /// buffers are zeroed by their split_group); called at the end of
  /// split_begin, with the inputs already bound.
  virtual void begin_scratch() {}

  /// Group `g`'s force buffer, zeroed over its footprint: the first step
  /// of the group's force pass, inside its own task.
  double* zeroed_group_forces(int g);

  /// Add the per-group force buffers into atoms.f() over each group's
  /// footprint and the per-group energy/virial into the total, in
  /// ascending group order.
  void reduce_forces();

  /// The one zero/add path for per-group buffers: `W` doubles per atom,
  /// over the indices in `footprint` only.
  template <int W>
  static void zero_footprint(const std::vector<int>& footprint, double* buf) {
    for (const int a : footprint) {
      for (int w = 0; w < W; ++w) buf[W * a + w] = 0.0;
    }
  }
  template <int W>
  static void add_footprint(const std::vector<int>& footprint,
                            const double* buf, double* acc) {
    for (const int a : footprint) {
      for (int w = 0; w < W; ++w) acc[W * a + w] += buf[W * a + w];
    }
  }

  // Split-evaluation state (bound by split_begin, valid for one step).
  Atoms* satoms_ = nullptr;
  const NeighborList* slist_ = nullptr;
  const ForceGroups* sgroups_ = nullptr;
  bool snewton_ = true;
  std::vector<std::vector<double>> gforce_;  ///< per group, 3*ntotal; live on its footprint
  std::vector<ForceResult> gpartial_;
  ForceResult stotal_;

 private:
  ForceGroups all_local_;  ///< compute()'s single group
};

}  // namespace lmp::md
