#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>

#include "md/eam.h"
#include "md/neighbor.h"

namespace lmp::md {
namespace {

Eam make_eam() { return Eam(make_cu_like_table(2000, 2000, 4.95)); }

/// Total EAM energy of a configuration evaluated with a full list.
double energy_of(Eam& eam, Atoms& atoms) {
  const NeighborBuilder b(4.95);
  const NeighborList l = b.build_full(atoms);
  atoms.zero_forces();
  return eam.compute(atoms, l, false, nullptr).energy;
}

Atoms cluster(std::initializer_list<Vec3> pos) {
  Atoms a;
  a.reserve_capacity(static_cast<int>(pos.size()) + 2);
  std::int64_t tag = 0;
  for (const Vec3& p : pos) a.add_local(p, {0, 0, 0}, tag++);
  return a;
}

TEST(Eam, CutoffAccessor) {
  Eam eam = make_eam();
  EXPECT_DOUBLE_EQ(eam.cutoff(), 4.95);
  EXPECT_EQ(eam.split_passes(), 2);
}

TEST(Eam, TabulatedFunctionsSane) {
  Eam eam = make_eam();
  EXPECT_GT(eam.rho_of_r(2.5), 0.0);
  EXPECT_GT(eam.rho_of_r(2.0), eam.rho_of_r(3.0));  // decaying density
  EXPECT_LT(eam.phi_of_r(2.87), 0.0);               // attractive near r0
  EXPECT_GT(eam.phi_of_r(1.8), 0.0);                // repulsive core
  EXPECT_LT(eam.embed(4.0), eam.embed(1.0));        // embedding binds
}

TEST(Eam, DimerEnergyIsPhiPlusEmbedding) {
  Eam eam = make_eam();
  const double r = 2.6;
  Atoms a = cluster({{0, 0, 0}, {r, 0, 0}});
  const double e = energy_of(eam, a);
  const double expected = eam.phi_of_r(r) + 2.0 * eam.embed(eam.rho_of_r(r));
  EXPECT_NEAR(e, expected, 1e-9);
}

TEST(Eam, ForceIsMinusEnergyGradient) {
  Eam eam = make_eam();
  const double h = 1e-6;
  for (double r : {2.2, 2.6, 3.0, 3.8, 4.5}) {
    Atoms a = cluster({{0, 0, 0}, {r, 0, 0}});
    const NeighborBuilder b(4.95);
    const NeighborList l = b.build_half(a, HalfRule::kCoordTieBreak);
    a.zero_forces();
    eam.compute(a, l, true, nullptr);
    const double fx = a.force(0).x;

    Atoms ap = cluster({{0, 0, 0}, {r + h, 0, 0}});
    Atoms am = cluster({{0, 0, 0}, {r - h, 0, 0}});
    const double fd = -(energy_of(eam, ap) - energy_of(eam, am)) / (2 * h);
    // Force on atom 1 along +x equals -dE/dr; on atom 0 it is +dE/dr.
    EXPECT_NEAR(-fx, fd, 1e-4 * std::max(1.0, std::fabs(fd))) << "r=" << r;
  }
}

TEST(Eam, NewtonPairForcesOpposite) {
  Eam eam = make_eam();
  Atoms a = cluster({{0, 0, 0}, {2.5, 0.3, -0.2}});
  const NeighborBuilder b(4.95);
  const NeighborList l = b.build_half(a, HalfRule::kCoordTieBreak);
  a.zero_forces();
  eam.compute(a, l, true, nullptr);
  EXPECT_NEAR(a.force(0).x, -a.force(1).x, 1e-10);
  EXPECT_NEAR(a.force(0).y, -a.force(1).y, 1e-10);
  EXPECT_NEAR(a.force(0).z, -a.force(1).z, 1e-10);
}

TEST(Eam, HalfAndFullListsAgree) {
  Eam eam = make_eam();
  Atoms a = cluster({{0, 0, 0}, {2.5, 0, 0}, {1.3, 2.1, 0}, {0.5, 0.8, 2.2}});
  const NeighborBuilder b(4.95);

  a.zero_forces();
  const ForceResult half =
      eam.compute(a, b.build_half(a, HalfRule::kCoordTieBreak), true, nullptr);
  std::vector<Vec3> f_half;
  for (int i = 0; i < a.nlocal(); ++i) f_half.push_back(a.force(i));

  a.zero_forces();
  const ForceResult full = eam.compute(a, b.build_full(a), false, nullptr);
  EXPECT_NEAR(half.energy, full.energy, 1e-9);
  EXPECT_NEAR(half.virial, full.virial, 1e-9);
  for (int i = 0; i < a.nlocal(); ++i) {
    EXPECT_NEAR(a.force(i).x, f_half[static_cast<std::size_t>(i)].x, 1e-9);
    EXPECT_NEAR(a.force(i).y, f_half[static_cast<std::size_t>(i)].y, 1e-9);
    EXPECT_NEAR(a.force(i).z, f_half[static_cast<std::size_t>(i)].z, 1e-9);
  }
}

TEST(Eam, TrimerDensityAccumulates) {
  Eam eam = make_eam();
  Atoms a = cluster({{0, 0, 0}, {2.5, 0, 0}, {-2.5, 0, 0}});
  const NeighborBuilder b(4.95);
  a.zero_forces();
  eam.compute(a, b.build_full(a), false, nullptr);
  const auto& rho = eam.last_rho();
  // Central atom sees both neighbors at 2.5, plus the outer pair at 5.0
  // which is beyond cutoff.
  EXPECT_NEAR(rho[0], 2.0 * eam.rho_of_r(2.5), 1e-9);
  EXPECT_NEAR(rho[1], eam.rho_of_r(2.5), 1e-9);
}

TEST(Eam, CentralAtomOfSymmetricTrimerFeelsNoForce) {
  Eam eam = make_eam();
  Atoms a = cluster({{0, 0, 0}, {2.5, 0, 0}, {-2.5, 0, 0}});
  const NeighborBuilder b(4.95);
  a.zero_forces();
  eam.compute(a, b.build_full(a), false, nullptr);
  EXPECT_NEAR(a.force(0).x, 0.0, 1e-10);
}

TEST(Eam, InvalidTableThrows) {
  EamTable t = make_cu_like_table(100, 100, 4.95);
  t.cutoff = 0.0;
  EXPECT_THROW(Eam{t}, std::invalid_argument);
}

TEST(Eam, MismatchedRadialGridsThrow) {
  // rho(r) and z2(r) share one segment lookup per pair, so they must
  // sit on the same r grid.
  EamTable t = make_cu_like_table(100, 100, 4.95);
  t.z2r.pop_back();
  EXPECT_THROW(Eam{t}, std::invalid_argument);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// 64-bit FNV-1a over the little-endian bytes of each value's bit pattern.
std::uint64_t fnv1a(std::uint64_t h, const double* v, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t b = bits(v[k]);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (b >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// A 3x3x3-cell fcc Cu block (a = 3.615 A), each coordinate jittered by up
/// to +-0.1 A from a fixed-seed mt19937 (raw draws, so the positions do
/// not depend on the standard library's distributions), surrounded on
/// all 26 sides by periodic ghost images out to `rn`.
Atoms jittered_fcc_with_ghosts(double rn) {
  constexpr double a0 = 3.615;
  constexpr int cells = 3;
  constexpr double len = a0 * cells;
  const double basis[4][3] = {{0, 0, 0}, {0.5, 0.5, 0}, {0.5, 0, 0.5}, {0, 0.5, 0.5}};
  std::mt19937 rng(20231113u);
  const auto jitter = [&rng] {
    return 0.2 * (static_cast<double>(rng()) / 4294967296.0 - 0.5);
  };
  std::vector<Vec3> pos;
  for (int cz = 0; cz < cells; ++cz) {
    for (int cy = 0; cy < cells; ++cy) {
      for (int cx = 0; cx < cells; ++cx) {
        for (const auto& b : basis) {
          const double px = (cx + b[0] + 0.25) * a0 + jitter();
          const double py = (cy + b[1] + 0.25) * a0 + jitter();
          const double pz = (cz + b[2] + 0.25) * a0 + jitter();
          pos.push_back({px, py, pz});
        }
      }
    }
  }
  const int n = static_cast<int>(pos.size());
  Atoms atoms;
  atoms.reserve_capacity(27 * n);
  for (int i = 0; i < n; ++i) atoms.add_local(pos[static_cast<std::size_t>(i)], {0, 0, 0}, i);
  const auto inside = [&](double c) { return c >= -rn && c < len + rn; };
  for (int sz = -1; sz <= 1; ++sz) {
    for (int sy = -1; sy <= 1; ++sy) {
      for (int sx = -1; sx <= 1; ++sx) {
        if (sx == 0 && sy == 0 && sz == 0) continue;
        for (int i = 0; i < n; ++i) {
          const Vec3& p = pos[static_cast<std::size_t>(i)];
          const Vec3 img{p.x + sx * len, p.y + sy * len, p.z + sz * len};
          if (inside(img.x) && inside(img.y) && inside(img.z)) atoms.add_ghost(img, i);
        }
      }
    }
  }
  return atoms;
}

/// The periodic halo of jittered_fcc_with_ghosts as a GhostDataComm:
/// every ghost's tag is its owner's local index.
class PeriodicHalo final : public GhostDataComm {
 public:
  explicit PeriodicHalo(const Atoms& atoms) : atoms_(atoms) {}
  void reverse_add(double* per_atom) override {
    for (int g = atoms_.nlocal(); g < atoms_.ntotal(); ++g) {
      per_atom[atoms_.tag(g)] += per_atom[g];
      per_atom[g] = 0.0;
    }
  }
  void forward(double* per_atom) override {
    for (int g = atoms_.nlocal(); g < atoms_.ntotal(); ++g) {
      per_atom[g] = per_atom[atoms_.tag(g)];
    }
  }

 private:
  const Atoms& atoms_;
};

/// Reference bits recorded from the EAM kernels as they stood before the
/// spline evaluation was inlined (per-call segment lookup for each table,
/// per-call constants); any reordering of the floating-point work breaks
/// them. The bits were recorded on x86-64 with glibc's libm, which builds
/// the table's std::exp samples, at the default flags, where no
/// multiply-adds are fused. Another libm or a target whose compiler fuses
/// them by default (GCC on aarch64) gives other bits from the same code,
/// so the test runs on x86-64 with glibc only.
TEST(Eam, BitsMatchRecordedReference) {
#if !(defined(__x86_64__) && defined(__GLIBC__))
  GTEST_SKIP() << "reference bits were recorded on x86-64 with glibc's libm";
#endif
  struct Case {
    bool half_newton;
    std::uint64_t energy, virial, hash;
  };
  const Case cases[] = {
      {true, 0xc084265be412a401ULL, 0xc08dcdccf6ff407aULL, 0x3c739621cecf9168ULL},
      {false, 0xc084265be412a3feULL, 0xc08dcdccf6ff4080ULL, 0x5f41fd12ac67364dULL},
  };
  constexpr double rn = 4.95 + 0.3;  // cutoff + skin: some listed pairs lie beyond rc
  Eam eam = make_eam();
  for (const Case& c : cases) {
    Atoms atoms = jittered_fcc_with_ghosts(rn);
    const NeighborBuilder b(rn);
    const NeighborList l = c.half_newton ? b.build_half(atoms, HalfRule::kCoordTieBreak)
                                         : b.build_full(atoms);
    PeriodicHalo halo(atoms);
    atoms.zero_forces();
    const ForceResult r = eam.compute(atoms, l, c.half_newton, &halo);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    h = fnv1a(h, atoms.f(), 3 * static_cast<std::size_t>(atoms.ntotal()));
    h = fnv1a(h, eam.last_rho().data(), eam.last_rho().size());
    EXPECT_EQ(bits(r.energy), c.energy) << std::hex << "half=" << c.half_newton
                                        << " energy 0x" << bits(r.energy);
    EXPECT_EQ(bits(r.virial), c.virial) << std::hex << "half=" << c.half_newton
                                        << " virial 0x" << bits(r.virial);
    EXPECT_EQ(h, c.hash) << std::hex << "half=" << c.half_newton << " hash 0x" << h;
  }
}

}  // namespace
}  // namespace lmp::md
