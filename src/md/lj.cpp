#include "md/lj.h"

#include <stdexcept>

namespace lmp::md {

LennardJones::LennardJones(double epsilon, double sigma, double cutoff)
    : epsilon_(epsilon), sigma_(sigma), cutoff_(cutoff), cut2_(cutoff * cutoff) {
  if (epsilon <= 0 || sigma <= 0 || cutoff <= 0) {
    throw std::invalid_argument("LJ parameters must be positive");
  }
  const double s6 = sigma * sigma * sigma * sigma * sigma * sigma;
  // Same coefficient grouping as LAMMPS pair_lj_cut:
  //   fpair = (lj1/r^12 - lj2/r^6) / r^2,  e = lj3/r^12 - lj4/r^6
  lj1_ = 48.0 * epsilon * s6 * s6;
  lj2_ = 24.0 * epsilon * s6;
  lj3_ = 4.0 * epsilon * s6 * s6;
  lj4_ = 4.0 * epsilon * s6;
}

double LennardJones::pair_energy(double r) const {
  const double r2 = r * r;
  const double inv6 = 1.0 / (r2 * r2 * r2);
  return lj3_ * inv6 * inv6 - lj4_ * inv6;
}

double LennardJones::pair_force_over_r(double r) const {
  const double r2 = r * r;
  const double inv2 = 1.0 / r2;
  const double inv6 = inv2 * inv2 * inv2;
  return (lj1_ * inv6 * inv6 - lj2_ * inv6) * inv2;
}

void LennardJones::force_rows(const std::vector<int>& rows, const double* x,
                              double* f, const NeighborList& list, bool newton,
                              int nlocal, ForceResult& out) const {
  // Half list with newton: apply to both partners (ghost forces are
  // reverse-communicated by the caller). Full list without newton:
  // i-side only, 0.5-weighted tallies.
  // Energy and virial accumulate in registers: `out` could alias `f`
  // as far as the compiler knows, so per-pair stores through it would
  // be reloaded around every force write.
  const double pair_weight = list.full ? 0.5 : 1.0;
  const int limit = list.partner_write_limit(newton, nlocal);
  double energy = 0.0, virial = 0.0;
  for (const int i : rows) {
    const double xi = x[3 * i], yi = x[3 * i + 1], zi = x[3 * i + 2];
    double fxi = 0, fyi = 0, fzi = 0;
    for (int k = list.offsets[i]; k < list.offsets[i + 1]; ++k) {
      const int j = list.neigh[static_cast<std::size_t>(k)];
      const double dx = xi - x[3 * j];
      const double dy = yi - x[3 * j + 1];
      const double dz = zi - x[3 * j + 2];
      const double r2 = dx * dx + dy * dy + dz * dz;
      if (r2 >= cut2_) continue;
      const double inv2 = 1.0 / r2;
      const double inv6 = inv2 * inv2 * inv2;
      const double fpair = (lj1_ * inv6 * inv6 - lj2_ * inv6) * inv2;
      fxi += dx * fpair;
      fyi += dy * fpair;
      fzi += dz * fpair;
      if (j < limit) {
        f[3 * j] -= dx * fpair;
        f[3 * j + 1] -= dy * fpair;
        f[3 * j + 2] -= dz * fpair;
      }
      energy += pair_weight * (lj3_ * inv6 * inv6 - lj4_ * inv6);
      virial += pair_weight * r2 * fpair;
    }
    f[3 * i] += fxi;
    f[3 * i + 1] += fyi;
    f[3 * i + 2] += fzi;
  }
  out.energy += energy;
  out.virial += virial;
}

void LennardJones::split_group(int pass, int g) {
  if (pass != 0) throw std::logic_error("LJ split: pass out of range");
  const auto gi = static_cast<std::size_t>(g);
  force_rows(sgroups_->groups[gi].atoms, satoms_->x(), zeroed_group_forces(g),
             *slist_, snewton_, satoms_->nlocal(), gpartial_[gi]);
}

void LennardJones::split_join(int pass, GhostDataComm*) {
  if (pass != 0) throw std::logic_error("LJ split: pass out of range");
  reduce_forces();
}

}  // namespace lmp::md
