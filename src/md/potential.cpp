#include "md/potential.h"

#include <numeric>
#include <stdexcept>

namespace lmp::md {

void Potential::split_begin(Atoms& atoms, const NeighborList& list,
                            bool newton, const ForceGroups* groups) {
  if (groups == nullptr) {
    throw std::invalid_argument("split_begin: null ForceGroups");
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
  for (auto& buf : gforce_) buf.assign(n3, 0.0);
  begin_scratch();
}

void Potential::reduce_forces() {
  // Canonical reduction: groups in ascending mask order, elementwise.
  // This fixed order is the whole determinism argument — it never
  // depends on which worker finished first.
  double* f = satoms_->f();
  const auto n3 = static_cast<std::size_t>(3) * satoms_->ntotal();
  for (std::size_t gi = 0; gi < gforce_.size(); ++gi) {
    const double* buf = gforce_[gi].data();
    for (std::size_t k = 0; k < n3; ++k) f[k] += buf[k];
    stotal_.energy += gpartial_[gi].energy;
    stotal_.virial += gpartial_[gi].virial;
  }
}

ForceResult Potential::compute_groups(Atoms& atoms, const NeighborList& list,
                                      bool newton, const ForceGroups& groups,
                                      GhostDataComm* ghost_comm) {
  split_begin(atoms, list, newton, &groups);
  for (int pass = 0; pass < split_passes(); ++pass) {
    for (int g = 0; g < groups.ngroups(); ++g) split_group(pass, g);
    split_join(pass, ghost_comm);
  }
  return split_finish();
}

ForceResult Potential::compute(Atoms& atoms, const NeighborList& list,
                               bool newton, GhostDataComm* ghost_comm) {
  all_local_.nlocal = atoms.nlocal();
  all_local_.groups.resize(1);
  std::vector<int>& rows = all_local_.groups[0].atoms;
  rows.resize(static_cast<std::size_t>(atoms.nlocal()));
  std::iota(rows.begin(), rows.end(), 0);
  return compute_groups(atoms, list, newton, all_local_, ghost_comm);
}

}  // namespace lmp::md
