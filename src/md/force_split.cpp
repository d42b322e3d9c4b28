#include "md/force_split.h"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace lmp::md {

void ForceGroups::rebuild(const Atoms& atoms, const geom::Box& sub,
                          double rc, const NeighborList& list, bool newton) {
  if (rc <= 0) throw std::invalid_argument("ForceGroups: rc must be > 0");
  nlocal = atoms.nlocal();
  ntotal = atoms.ntotal();
  stamp_.resize(static_cast<std::size_t>(ntotal));
  const double* x = atoms.x();

  // 64 possible masks (each axis: none/low/high/both). Count per mask,
  // then fill the non-empty ones in ascending mask order; ascending
  // local index within a group falls out of the forward scan.
  std::array<int, 64> count{};
  for (int i = 0; i < nlocal; ++i) {
    const double xi = x[3 * i], yi = x[3 * i + 1], zi = x[3 * i + 2];
    int mask = 0;
    if (xi < sub.lo.x + rc) mask |= kLowX;
    if (xi > sub.hi.x - rc) mask |= kHighX;
    if (yi < sub.lo.y + rc) mask |= kLowY;
    if (yi > sub.hi.y - rc) mask |= kHighY;
    if (zi < sub.lo.z + rc) mask |= kLowZ;
    if (zi > sub.hi.z - rc) mask |= kHighZ;
    stamp_[static_cast<std::size_t>(i)] = mask;
    ++count[static_cast<std::size_t>(mask)];
  }
  std::array<int, 64> slot{};
  int ng = 0;
  for (std::size_t m = 0; m < count.size(); ++m) slot[m] = count[m] > 0 ? ng++ : -1;
  groups.resize(static_cast<std::size_t>(ng));
  for (std::size_t m = 0; m < count.size(); ++m) {
    if (slot[m] < 0) continue;
    ForceGroup& grp = groups[static_cast<std::size_t>(slot[m])];
    grp.mask = static_cast<int>(m);
    grp.atoms.clear();
    grp.atoms.reserve(static_cast<std::size_t>(count[m]));
  }
  for (int i = 0; i < nlocal; ++i) {
    const auto mask = static_cast<std::size_t>(stamp_[static_cast<std::size_t>(i)]);
    groups[static_cast<std::size_t>(slot[mask])].atoms.push_back(i);
  }

  // Footprints: rows, plus on a half list every neighbor a kernel may
  // update. One pass over the list, stamping each index with the last
  // group that claimed it so a group lists it once.
  std::fill(stamp_.begin(), stamp_.end(), -1);
  const int limit = list.partner_write_limit(newton, nlocal);
  for (int g = 0; g < ng; ++g) {
    ForceGroup& grp = groups[static_cast<std::size_t>(g)];
    std::vector<int>& fp = grp.footprint;
    fp.assign(grp.atoms.begin(), grp.atoms.end());
    if (limit == 0) continue;  // no partner writes: rows only, already ascending
    for (const int i : grp.atoms) stamp_[static_cast<std::size_t>(i)] = g;
    for (const int i : grp.atoms) {
      for (int k = list.offsets[i]; k < list.offsets[i + 1]; ++k) {
        const int j = list.neigh[static_cast<std::size_t>(k)];
        if (j >= limit) continue;
        int& st = stamp_[static_cast<std::size_t>(j)];
        if (st == g) continue;
        st = g;
        fp.push_back(j);
      }
    }
    std::sort(fp.begin(), fp.end());
  }
}

ForceGroups ForceGroups::build(const Atoms& atoms, const geom::Box& sub,
                               double rc, const NeighborList& list,
                               bool newton) {
  ForceGroups out;
  out.rebuild(atoms, sub, rc, list, newton);
  return out;
}

bool group_reads_dir(int mask, int dx, int dy, int dz) {
  if (dx == -1 && !(mask & kLowX)) return false;
  if (dx == +1 && !(mask & kHighX)) return false;
  if (dy == -1 && !(mask & kLowY)) return false;
  if (dy == +1 && !(mask & kHighY)) return false;
  if (dz == -1 && !(mask & kLowZ)) return false;
  if (dz == +1 && !(mask & kHighZ)) return false;
  return true;
}

}  // namespace lmp::md
