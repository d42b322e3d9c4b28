#include "md/potential.h"

#include <numeric>
#include <stdexcept>

namespace lmp::md {

void Potential::split_begin(Atoms& atoms, const NeighborList& list,
                            bool newton, const ForceGroups* groups) {
  if (groups == nullptr) {
    throw std::invalid_argument("split_begin: null ForceGroups");
  }
  // A group's footprint always holds at least its rows; a shorter one
  // was never built, and zeroing/reducing over it would drop writes.
  bool footprinted = groups->ntotal == atoms.ntotal();
  for (const ForceGroup& grp : groups->groups) {
    footprinted = footprinted && grp.footprint.size() >= grp.atoms.size();
  }
  if (!footprinted) {
    throw std::logic_error(
        "split_begin: ForceGroups carry no footprints for these atoms "
        "(build them with ForceGroups::rebuild at the neighbor rebuild)");
  }
  satoms_ = &atoms;
  slist_ = &list;
  sgroups_ = groups;
  snewton_ = newton;
  stotal_ = {};
  const auto ng = static_cast<std::size_t>(groups->ngroups());
  const auto n3 = static_cast<std::size_t>(3) * atoms.ntotal();
  gforce_.resize(ng);
  gpartial_.assign(ng, {});
  for (auto& buf : gforce_) buf.resize(n3);
  begin_scratch();
}

double* Potential::zeroed_group_forces(int g) {
  const auto gi = static_cast<std::size_t>(g);
  double* buf = gforce_[gi].data();
  zero_footprint<3>(sgroups_->groups[gi].footprint, buf);
  return buf;
}

void Potential::reduce_forces() {
  // Canonical reduction: groups in ascending mask order, each over its
  // footprint. This fixed order is the whole determinism argument — it
  // never depends on which worker finished first. Skipping a group's
  // non-footprint entries drops only `+0.0` addends, and `x + (+0.0)`
  // is `x` bit for bit unless `x` is `-0.0`, which an accumulator that
  // starts at `+0.0` never becomes under round-to-nearest.
  double* f = satoms_->f();
  for (std::size_t gi = 0; gi < gforce_.size(); ++gi) {
    add_footprint<3>(sgroups_->groups[gi].footprint, gforce_[gi].data(), f);
    stotal_.energy += gpartial_[gi].energy;
    stotal_.virial += gpartial_[gi].virial;
  }
}

ForceResult Potential::compute(Atoms& atoms, const NeighborList& list,
                               bool newton, GhostDataComm* ghost_comm) {
  all_local_.nlocal = atoms.nlocal();
  all_local_.ntotal = atoms.ntotal();
  all_local_.groups.resize(1);
  ForceGroup& grp = all_local_.groups[0];
  grp.atoms.resize(static_cast<std::size_t>(atoms.nlocal()));
  std::iota(grp.atoms.begin(), grp.atoms.end(), 0);
  grp.footprint.resize(static_cast<std::size_t>(atoms.ntotal()));
  std::iota(grp.footprint.begin(), grp.footprint.end(), 0);
  split_begin(atoms, list, newton, &all_local_);
  for (int pass = 0; pass < split_passes(); ++pass) {
    split_group(pass, 0);
    split_join(pass, ghost_comm);
  }
  return split_finish();
}

}  // namespace lmp::md
