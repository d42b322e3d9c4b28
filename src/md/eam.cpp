#include "md/eam.h"

#include <cmath>
#include <stdexcept>

namespace lmp::md {

Eam::Eam(const EamTable& t)
    : cutoff_(t.cutoff),
      cut2_(t.cutoff * t.cutoff),
      frho_(0.0, t.drho, t.frho),
      rhor_(t.dr, t.dr, t.rhor),
      z2r_(t.dr, t.dr, t.z2r) {
  if (t.cutoff <= 0) throw std::invalid_argument("EAM cutoff must be > 0");
  // force_rows locates each pair's segment once for both radial tables.
  if (t.rhor.size() != t.z2r.size()) {
    throw std::invalid_argument("EAM rho(r) and z2(r) must share one r grid");
  }
}

void Eam::rho_rows(const std::vector<int>& rows, const double* x, double* rho,
                   const NeighborList& list, bool newton, int nlocal) const {
  const int limit = list.partner_write_limit(newton, nlocal);
  for (const int i : rows) {
    const double xi = x[3 * i], yi = x[3 * i + 1], zi = x[3 * i + 2];
    // A row never lists i itself, so summing it in a register adds the
    // same terms in the same order as `rho[i] +=` would.
    double rhoi = rho[i];
    for (int k = list.offsets[i]; k < list.offsets[i + 1]; ++k) {
      const int j = list.neigh[static_cast<std::size_t>(k)];
      const double dx = xi - x[3 * j];
      const double dy = yi - x[3 * j + 1];
      const double dz = zi - x[3 * j + 2];
      const double r2 = dx * dx + dy * dy + dz * dz;
      if (r2 >= cut2_) continue;
      const double rho_r = rhor_.value(std::sqrt(r2));
      rhoi += rho_r;
      if (j < limit) rho[j] += rho_r;
    }
    rho[i] = rhoi;
  }
}

void Eam::force_rows(const std::vector<int>& rows, const double* x, double* f,
                     const NeighborList& list, bool newton, int nlocal,
                     ForceResult& out) const {
  // Energy and virial accumulate in registers (see LennardJones).
  const double pair_weight = list.full ? 0.5 : 1.0;
  const int limit = list.partner_write_limit(newton, nlocal);
  double energy = 0.0, virial = 0.0;
  for (const int i : rows) {
    const double xi = x[3 * i], yi = x[3 * i + 1], zi = x[3 * i + 2];
    const double fpi = fp_[static_cast<std::size_t>(i)];
    double fxi = 0, fyi = 0, fzi = 0;
    for (int k = list.offsets[i]; k < list.offsets[i + 1]; ++k) {
      const int j = list.neigh[static_cast<std::size_t>(k)];
      const double dx = xi - x[3 * j];
      const double dy = yi - x[3 * j + 1];
      const double dz = zi - x[3 * j + 2];
      const double r2 = dx * dx + dy * dy + dz * dz;
      if (r2 >= cut2_) continue;
      const double r = std::sqrt(r2);

      // rho(r) and z2(r) share the r grid: one segment for both.
      double t;
      const int seg = rhor_.segment(r, t);
      double rho_r, rhop;
      rhor_.eval_at(seg, t, rho_r, rhop);
      double z2, z2p;
      z2r_.eval_at(seg, t, z2, z2p);
      const double recip = 1.0 / r;
      const double phi = z2 * recip;
      const double phip = z2p * recip - phi * recip;

      const double psip = fpi * rhop + fp_[static_cast<std::size_t>(j)] * rhop + phip;
      const double fpair = -psip * recip;

      fxi += dx * fpair;
      fyi += dy * fpair;
      fzi += dz * fpair;
      if (j < limit) {
        f[3 * j] -= dx * fpair;
        f[3 * j + 1] -= dy * fpair;
        f[3 * j + 2] -= dz * fpair;
      }
      energy += pair_weight * phi;
      virial += pair_weight * r2 * fpair;
    }
    f[3 * i] += fxi;
    f[3 * i + 1] += fyi;
    f[3 * i + 2] += fzi;
  }
  out.energy += energy;
  out.virial += virial;
}

void Eam::begin_scratch() {
  const auto ng = static_cast<std::size_t>(sgroups_->ngroups());
  const auto n = static_cast<std::size_t>(satoms_->ntotal());
  rho_.assign(n, 0.0);
  fp_.assign(n, 0.0);
  grho_.resize(ng);
  for (auto& buf : grho_) buf.resize(n);
}

void Eam::split_group(int pass, int g) {
  const auto gi = static_cast<std::size_t>(g);
  const ForceGroup& grp = sgroups_->groups[gi];
  if (pass == 0) {
    double* rho = grho_[gi].data();
    zero_footprint<1>(grp.footprint, rho);
    rho_rows(grp.atoms, satoms_->x(), rho, *slist_, snewton_,
             satoms_->nlocal());
  } else if (pass == 1) {
    force_rows(grp.atoms, satoms_->x(), zeroed_group_forces(g), *slist_,
               snewton_, satoms_->nlocal(), gpartial_[gi]);
  } else {
    throw std::logic_error("EAM split: pass out of range");
  }
}

void Eam::split_join(int pass, GhostDataComm* ghost_comm) {
  if (pass == 0) {
    // Canonical density reduction (group by group in ascending mask
    // order, each over its footprint — see reduce_forces for why that
    // keeps the bits), then the two mid-pair comms and the embedding term.
    const int nlocal = satoms_->nlocal();
    for (std::size_t gi = 0; gi < grho_.size(); ++gi) {
      add_footprint<1>(sgroups_->groups[gi].footprint, grho_[gi].data(),
                       rho_.data());
    }
    if (snewton_ && ghost_comm != nullptr) {
      ghost_comm->reverse_add(rho_.data());
    }
    for (int i = 0; i < nlocal; ++i) {
      double emb, deriv;
      frho_.eval(rho_[static_cast<std::size_t>(i)], emb, deriv);
      stotal_.energy += emb;
      fp_[static_cast<std::size_t>(i)] = deriv;
    }
    if (ghost_comm != nullptr) {
      ghost_comm->forward(fp_.data());
    }
  } else if (pass == 1) {
    reduce_forces();
  } else {
    throw std::logic_error("EAM split: pass out of range");
  }
}

}  // namespace lmp::md
