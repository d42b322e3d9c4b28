#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "geom/box.h"
#include "md/eam.h"
#include "md/eam_table.h"
#include "md/force_split.h"
#include "md/lj.h"
#include "md/neighbor.h"

namespace lmp::md {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Pseudo-random cluster of `n` local atoms inside [0, span]^3.
Atoms cluster(int n, double span, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(0.0, span);
  Atoms a;
  a.reserve_capacity(n);
  for (int i = 0; i < n; ++i) {
    a.add_local({u(rng), u(rng), u(rng)}, {0, 0, 0}, i);
  }
  return a;
}

/// `n` local atoms inside [0, span]^3 followed by `nghost` ghosts in the
/// slab just past the high-x face, [span, span + 1.5] x [0, span]^2 —
/// the side a half list lets kernels write into.
Atoms cluster_with_ghosts(int n, int nghost, double span, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(0.0, span);
  std::uniform_real_distribution<double> slab(span, span + 1.5);
  Atoms a;
  a.reserve_capacity(n + nghost);
  for (int i = 0; i < n; ++i) a.add_local({u(rng), u(rng), u(rng)}, {0, 0, 0}, i);
  for (int k = 0; k < nghost; ++k) a.add_ghost({slab(rng), u(rng), u(rng)}, n + k);
  return a;
}

TEST(ForceGroups, InteriorAtomsFormSingleMaskZeroGroup) {
  Atoms a = cluster(40, 4.0, 7u);
  // Sub-box far larger than the cluster: nothing is within rc of a face.
  const geom::Box sub{{-100, -100, -100}, {100, 100, 100}};
  const ForceGroups fg =
      ForceGroups::build(a, sub, 2.5, NeighborBuilder(2.5).build_full(a), false);
  ASSERT_EQ(fg.ngroups(), 1);
  EXPECT_EQ(fg.groups[0].mask, 0);
  EXPECT_EQ(static_cast<int>(fg.groups[0].atoms.size()), a.nlocal());
  EXPECT_EQ(fg.nlocal, a.nlocal());
}

TEST(ForceGroups, BandClassificationAndCanonicalOrder) {
  Atoms a;
  a.reserve_capacity(8);
  // Box [0,10]^3, rc 1: one interior atom, one in each x band, one corner.
  a.add_local({5, 5, 5}, {0, 0, 0}, 0);      // interior
  a.add_local({0.5, 5, 5}, {0, 0, 0}, 1);    // low-x band
  a.add_local({9.5, 5, 5}, {0, 0, 0}, 2);    // high-x band
  a.add_local({0.5, 0.5, 5}, {0, 0, 0}, 3);  // low-x + low-y
  a.add_local({6, 5, 5}, {0, 0, 0}, 4);      // interior (second)
  const geom::Box sub{{0, 0, 0}, {10, 10, 10}};
  const ForceGroups fg =
      ForceGroups::build(a, sub, 1.0, NeighborBuilder(1.0).build_full(a), false);

  ASSERT_EQ(fg.ngroups(), 4);
  // Ascending mask order, ascending atom indices inside each group.
  EXPECT_EQ(fg.groups[0].mask, 0);
  EXPECT_EQ(fg.groups[0].atoms, (std::vector<int>{0, 4}));
  EXPECT_EQ(fg.groups[1].mask, kLowX);
  EXPECT_EQ(fg.groups[1].atoms, (std::vector<int>{1}));
  EXPECT_EQ(fg.groups[2].mask, kHighX);
  EXPECT_EQ(fg.groups[2].atoms, (std::vector<int>{2}));
  EXPECT_EQ(fg.groups[3].mask, kLowX | kLowY);
  EXPECT_EQ(fg.groups[3].atoms, (std::vector<int>{3}));
}

TEST(ForceGroups, InvalidCutoffThrows) {
  Atoms a = cluster(2, 1.0, 1u);
  const geom::Box sub{{0, 0, 0}, {1, 1, 1}};
  EXPECT_THROW(
      ForceGroups::build(a, sub, 0.0, NeighborBuilder(1.0).build_full(a), false),
      std::invalid_argument);
}

TEST(GroupReadsDir, MatchesBandMaskSemantics) {
  // Interior reads no direction at all.
  EXPECT_FALSE(group_reads_dir(0, 1, 0, 0));
  EXPECT_FALSE(group_reads_dir(0, -1, 1, 0));
  // A high-x band atom reads the high-x face, nothing else.
  EXPECT_TRUE(group_reads_dir(kHighX, 1, 0, 0));
  EXPECT_FALSE(group_reads_dir(kHighX, -1, 0, 0));
  EXPECT_FALSE(group_reads_dir(kHighX, 1, 1, 0));  // lacks high-y
  // A high-x + high-y edge atom reads the face dirs and their edge.
  const int edge = kHighX | kHighY;
  EXPECT_TRUE(group_reads_dir(edge, 1, 0, 0));
  EXPECT_TRUE(group_reads_dir(edge, 0, 1, 0));
  EXPECT_TRUE(group_reads_dir(edge, 1, 1, 0));
  EXPECT_FALSE(group_reads_dir(edge, 1, -1, 0));
  EXPECT_FALSE(group_reads_dir(edge, 1, 1, 1));  // lacks high-z
}

/// Half list for Newton on, full list for Newton off — the two list
/// kinds the simulation runs the split on.
NeighborList list_for(const NeighborBuilder& nb, const Atoms& a, bool newton) {
  return newton ? nb.build_half(a, HalfRule::kCoordTieBreak)
                : nb.build_full(a);
}

/// The split sequence with each pass's groups run in ascending or
/// descending order.
ForceResult run_split(Potential& pot, Atoms& at, const NeighborList& l,
                      bool newton, const ForceGroups& fg, bool reverse) {
  at.zero_forces();
  pot.split_begin(at, l, newton, &fg);
  for (int pass = 0; pass < pot.split_passes(); ++pass) {
    for (int k = 0; k < fg.ngroups(); ++k) {
      pot.split_group(pass, reverse ? fg.ngroups() - 1 - k : k);
    }
    pot.split_join(pass, nullptr);
  }
  return pot.split_finish();
}

void expect_bitwise(const Atoms& a, const ForceResult& ra, const Atoms& b,
                    const ForceResult& rb) {
  for (int k = 0; k < 3 * a.ntotal(); ++k) {
    ASSERT_EQ(bits(a.f()[k]), bits(b.f()[k])) << "force component " << k;
  }
  EXPECT_EQ(bits(ra.energy), bits(rb.energy));
  EXPECT_EQ(bits(ra.virial), bits(rb.virial));
}

/// Banding reassociates per-atom sums, so one group and many agree to
/// rounding: force components within 1e-12 of the largest component,
/// energy and virial within 1e-12 relative.
void expect_near(const Atoms& a, const ForceResult& ra, const Atoms& b,
                 const ForceResult& rb) {
  double fmax = 1.0;
  for (int k = 0; k < 3 * a.ntotal(); ++k) fmax = std::max(fmax, std::abs(a.f()[k]));
  for (int k = 0; k < 3 * a.ntotal(); ++k) {
    ASSERT_NEAR(a.f()[k], b.f()[k], 1e-12 * fmax) << "force component " << k;
  }
  EXPECT_NEAR(ra.energy, rb.energy, 1e-12 * std::max(1.0, std::abs(ra.energy)));
  EXPECT_NEAR(ra.virial, rb.virial, 1e-12 * std::max(1.0, std::abs(ra.virial)));
}

TEST(LjSplit, OneGroupComputeMatchesBandedSplit) {
  // compute() is the split over one all-local group; the banded run
  // sums the same pairs through many private buffers.
  LennardJones lj(1.0, 1.0, 2.5);
  Atoms a = cluster(80, 6.0, 42u);
  Atoms b = cluster(80, 6.0, 42u);
  const NeighborBuilder nb(2.8);
  const NeighborList la = nb.build_half(a, HalfRule::kCoordTieBreak);
  const NeighborList lb = nb.build_half(b, HalfRule::kCoordTieBreak);

  a.zero_forces();
  const ForceResult one = lj.compute(a, la, true, nullptr);

  const geom::Box sub{{0, 0, 0}, {6, 6, 6}};
  const ForceGroups fg = ForceGroups::build(b, sub, 2.0, lb, true);
  ASSERT_GT(fg.ngroups(), 2);
  const ForceResult banded = run_split(lj, b, lb, true, fg, false);
  expect_near(a, one, b, banded);
}

TEST(LjSplit, GroupExecutionOrderDoesNotChangeBits) {
  // Groups write private buffers and the join reduces in ascending
  // order, so running split_group in any order gives identical bits —
  // the async executor's determinism argument, in miniature. Checked
  // on the half list (Newton on) and the full list (Newton off).
  for (const bool newton : {true, false}) {
    SCOPED_TRACE(newton ? "newton on, half list" : "newton off, full list");
    LennardJones lj_a(1.0, 1.0, 2.5), lj_b(1.0, 1.0, 2.5);
    Atoms a = cluster(80, 6.0, 9u);
    Atoms b = cluster(80, 6.0, 9u);
    const NeighborBuilder nb(2.8);
    const NeighborList la = list_for(nb, a, newton);
    const NeighborList lb = list_for(nb, b, newton);
    const geom::Box sub{{0, 0, 0}, {6, 6, 6}};
    const ForceGroups fga = ForceGroups::build(a, sub, 2.0, la, newton);
    const ForceGroups fgb = ForceGroups::build(b, sub, 2.0, lb, newton);
    ASSERT_GT(fga.ngroups(), 2);

    const ForceResult fwd = run_split(lj_a, a, la, newton, fga, false);
    const ForceResult rev = run_split(lj_b, b, lb, newton, fgb, true);
    expect_bitwise(a, fwd, b, rev);
  }
}

TEST(EamSplit, OneGroupComputeMatchesBandedSplit) {
  const EamTable table =
      parse_funcfl(to_funcfl(make_cu_like_table(2000, 2000, 4.95)));
  Eam eam_a(table), eam_b(table);
  Atoms a = cluster(60, 9.0, 11u);
  Atoms b = cluster(60, 9.0, 11u);
  const NeighborBuilder nb(5.3);
  const NeighborList la = nb.build_half(a, HalfRule::kCoordTieBreak);
  const NeighborList lb = nb.build_half(b, HalfRule::kCoordTieBreak);

  a.zero_forces();
  const ForceResult one = eam_a.compute(a, la, true, nullptr);

  const geom::Box sub{{0, 0, 0}, {9, 9, 9}};
  const ForceGroups fg = ForceGroups::build(b, sub, 3.0, lb, true);
  ASSERT_GT(fg.ngroups(), 2);
  const ForceResult banded = run_split(eam_b, b, lb, true, fg, false);

  ASSERT_EQ(eam_a.last_rho().size(), eam_b.last_rho().size());
  for (std::size_t i = 0; i < eam_a.last_rho().size(); ++i) {
    ASSERT_NEAR(eam_a.last_rho()[i], eam_b.last_rho()[i],
                1e-12 * std::max(1.0, std::abs(eam_a.last_rho()[i])))
        << "rho of atom " << i;
  }
  expect_near(a, one, b, banded);
}

TEST(EamSplit, GroupExecutionOrderDoesNotChangeBits) {
  const EamTable table =
      parse_funcfl(to_funcfl(make_cu_like_table(2000, 2000, 4.95)));
  for (const bool newton : {true, false}) {
    SCOPED_TRACE(newton ? "newton on, half list" : "newton off, full list");
    Eam eam_a(table), eam_b(table);
    Atoms a = cluster(60, 9.0, 23u);
    Atoms b = cluster(60, 9.0, 23u);
    const NeighborBuilder nb(5.3);
    const NeighborList la = list_for(nb, a, newton);
    const NeighborList lb = list_for(nb, b, newton);
    const geom::Box sub{{0, 0, 0}, {9, 9, 9}};
    const ForceGroups fga = ForceGroups::build(a, sub, 3.0, la, newton);
    const ForceGroups fgb = ForceGroups::build(b, sub, 3.0, lb, newton);
    ASSERT_GT(fga.ngroups(), 1);

    const ForceResult fwd = run_split(eam_a, a, la, newton, fga, false);
    const ForceResult rev = run_split(eam_b, b, lb, newton, fgb, true);
    expect_bitwise(a, fwd, b, rev);
  }
}

/// `fg` cut down to group `g` alone, zeroed and reduced over `footprint`.
ForceGroups only_group(const ForceGroups& fg, int g, std::vector<int> footprint) {
  ForceGroups one = fg;
  one.groups = {fg.groups[static_cast<std::size_t>(g)]};
  one.groups[0].footprint = std::move(footprint);
  return one;
}

/// Runs every group of `fg` alone through the split twice: once over its
/// footprint and once over the dense range [0, ntotal), which keeps every
/// write the kernels make. Each dense write must lie in the footprint, and
/// the footprint run must reproduce the dense one bit for bit.
/// `make` returns a fresh potential; `rho` returns its last densities
/// (empty for pair styles without any).
template <class MakePot, class Rho>
void expect_footprint_covers_writes(MakePot make, Rho rho, const Atoms& atoms,
                                    const NeighborList& l, bool newton,
                                    const ForceGroups& fg) {
  std::vector<int> dense(static_cast<std::size_t>(atoms.ntotal()));
  std::iota(dense.begin(), dense.end(), 0);
  bool wrote_ghost = false;
  for (int g = 0; g < fg.ngroups(); ++g) {
    SCOPED_TRACE("group " + std::to_string(g));
    const ForceGroup& grp = fg.groups[static_cast<std::size_t>(g)];
    ASSERT_TRUE(std::is_sorted(grp.footprint.begin(), grp.footprint.end()));
    ASSERT_EQ(std::adjacent_find(grp.footprint.begin(), grp.footprint.end()),
              grp.footprint.end());
    if (!l.full) {
      ASSERT_TRUE(std::includes(grp.footprint.begin(), grp.footprint.end(),
                                grp.atoms.begin(), grp.atoms.end()));
    } else {
      EXPECT_EQ(grp.footprint, grp.atoms);
    }

    auto pot_dense = make();
    auto pot_sparse = make();
    Atoms a_dense = atoms, a_sparse = atoms;
    const ForceResult r_dense =
        run_split(*pot_dense, a_dense, l, newton, only_group(fg, g, dense), false);
    const ForceResult r_sparse = run_split(
        *pot_sparse, a_sparse, l, newton, only_group(fg, g, grp.footprint), false);

    const std::vector<double> rho_dense = rho(*pot_dense);
    for (int a = 0; a < atoms.ntotal(); ++a) {
      const double* fa = a_dense.f() + 3 * a;
      const bool wrote = fa[0] != 0.0 || fa[1] != 0.0 || fa[2] != 0.0 ||
                         (!rho_dense.empty() && rho_dense[static_cast<std::size_t>(a)] != 0.0);
      if (!wrote) continue;
      EXPECT_TRUE(std::binary_search(grp.footprint.begin(), grp.footprint.end(), a))
          << "write to atom " << a;
      wrote_ghost = wrote_ghost || a >= atoms.nlocal();
    }
    expect_bitwise(a_dense, r_dense, a_sparse, r_sparse);
    const std::vector<double> rho_sparse = rho(*pot_sparse);
    ASSERT_EQ(rho_dense.size(), rho_sparse.size());
    for (std::size_t i = 0; i < rho_dense.size(); ++i) {
      ASSERT_EQ(bits(rho_dense[i]), bits(rho_sparse[i])) << "rho of atom " << i;
    }
  }
  // Newton on writes into ghosts; the coverage check must have seen some.
  EXPECT_EQ(wrote_ghost, newton);
}

TEST(LjSplit, FootprintCoversEveryWrite) {
  for (const bool newton : {true, false}) {
    SCOPED_TRACE(newton ? "newton on, half list" : "newton off, full list");
    const Atoms a = cluster_with_ghosts(80, 20, 6.0, 31u);
    const NeighborList l = list_for(NeighborBuilder(2.8), a, newton);
    const geom::Box sub{{0, 0, 0}, {6, 6, 6}};
    const ForceGroups fg = ForceGroups::build(a, sub, 2.0, l, newton);
    ASSERT_GT(fg.ngroups(), 2);
    expect_footprint_covers_writes(
        [] { return std::make_unique<LennardJones>(1.0, 1.0, 2.5); },
        [](const LennardJones&) { return std::vector<double>{}; }, a, l,
        newton, fg);
  }
}

TEST(EamSplit, FootprintCoversEveryWrite) {
  const EamTable table =
      parse_funcfl(to_funcfl(make_cu_like_table(2000, 2000, 4.95)));
  for (const bool newton : {true, false}) {
    SCOPED_TRACE(newton ? "newton on, half list" : "newton off, full list");
    const Atoms a = cluster_with_ghosts(60, 15, 9.0, 37u);
    const NeighborList l = list_for(NeighborBuilder(5.3), a, newton);
    const geom::Box sub{{0, 0, 0}, {9, 9, 9}};
    const ForceGroups fg = ForceGroups::build(a, sub, 3.0, l, newton);
    ASSERT_GT(fg.ngroups(), 2);
    expect_footprint_covers_writes(
        [&table] { return std::make_unique<Eam>(table); },
        [](const Eam& e) { return e.last_rho(); }, a, l, newton, fg);
  }
}

/// Evaluates epoch A, then epoch B on the same potential: B has the same
/// atom count but moved atoms and a different partition, so every
/// per-group buffer enters B holding A's values. B must match a fresh
/// potential bit for bit.
template <class Pot>
void expect_no_stale_carryover(Pot& reused, Pot& fresh, double span, double rc,
                               const NeighborBuilder& nb) {
  for (const bool newton : {true, false}) {
    SCOPED_TRACE(newton ? "newton on, half list" : "newton off, full list");
    Atoms a = cluster_with_ghosts(70, 20, span, 3u);
    Atoms b = cluster_with_ghosts(70, 20, span, 4u);
    Atoms b_fresh = b;
    const NeighborList la = list_for(nb, a, newton);
    const NeighborList lb = list_for(nb, b, newton);
    const geom::Box sub_a{{0, 0, 0}, {span, span, span}};
    const geom::Box sub_b{{0.5, 0.5, 0.5}, {span, span, span}};
    const ForceGroups fga = ForceGroups::build(a, sub_a, rc, la, newton);
    const ForceGroups fgb = ForceGroups::build(b, sub_b, 0.8 * rc, lb, newton);
    ASSERT_EQ(a.ntotal(), b.ntotal());
    ASSERT_GT(fgb.ngroups(), 2);
    ASSERT_NE(fga.groups[1].atoms, fgb.groups[1].atoms);

    run_split(reused, a, la, newton, fga, false);
    const ForceResult r_reused = run_split(reused, b, lb, newton, fgb, false);
    const ForceResult r_fresh = run_split(fresh, b_fresh, lb, newton, fgb, false);
    expect_bitwise(b, r_reused, b_fresh, r_fresh);
    if constexpr (std::is_same_v<Pot, Eam>) {
      ASSERT_EQ(reused.last_rho().size(), fresh.last_rho().size());
      for (std::size_t i = 0; i < fresh.last_rho().size(); ++i) {
        ASSERT_EQ(bits(reused.last_rho()[i]), bits(fresh.last_rho()[i]))
            << "rho of atom " << i;
      }
    }
  }
}

TEST(LjSplit, StaleBuffersAcrossEpochs) {
  LennardJones reused(1.0, 1.0, 2.5);
  for (int rep = 0; rep < 2; ++rep) {
    LennardJones fresh(1.0, 1.0, 2.5);
    expect_no_stale_carryover(reused, fresh, 6.0, 2.0, NeighborBuilder(2.8));
  }
}

TEST(EamSplit, StaleBuffersAcrossEpochs) {
  const EamTable table =
      parse_funcfl(to_funcfl(make_cu_like_table(2000, 2000, 4.95)));
  Eam reused(table);
  for (int rep = 0; rep < 2; ++rep) {
    Eam fresh(table);
    expect_no_stale_carryover(reused, fresh, 9.0, 3.0, NeighborBuilder(5.3));
  }
}

TEST(ForceGroups, RebuildInPlaceMatchesFreshBuild) {
  // The simulation rebuilds one long-lived ForceGroups every epoch; its
  // reused storage must never leak into the new partition.
  const NeighborBuilder nb(2.8);
  const geom::Box sub{{0, 0, 0}, {6, 6, 6}};
  ForceGroups reused;
  for (const std::uint32_t seed : {5u, 6u, 7u}) {
    for (const bool newton : {true, false}) {
      const Atoms a = cluster_with_ghosts(60 + static_cast<int>(seed), 10, 6.0, seed);
      const NeighborList l = list_for(nb, a, newton);
      const double rc = 1.5 + 0.1 * seed;
      reused.rebuild(a, sub, rc, l, newton);
      const ForceGroups fresh = ForceGroups::build(a, sub, rc, l, newton);
      EXPECT_EQ(reused.nlocal, fresh.nlocal);
      EXPECT_EQ(reused.ntotal, fresh.ntotal);
      ASSERT_EQ(reused.ngroups(), fresh.ngroups());
      for (int g = 0; g < fresh.ngroups(); ++g) {
        const auto gi = static_cast<std::size_t>(g);
        EXPECT_EQ(reused.groups[gi].mask, fresh.groups[gi].mask);
        EXPECT_EQ(reused.groups[gi].atoms, fresh.groups[gi].atoms);
        EXPECT_EQ(reused.groups[gi].footprint, fresh.groups[gi].footprint);
      }
    }
  }
}

TEST(ForceGroups, SplitBeginWithoutFootprintThrows) {
  LennardJones lj(1.0, 1.0, 2.5);
  Atoms a = cluster_with_ghosts(30, 5, 4.0, 13u);
  const NeighborList l = list_for(NeighborBuilder(2.8), a, true);
  const geom::Box sub{{0, 0, 0}, {4, 4, 4}};

  // Hand-made partition: rows but no footprints at all.
  ForceGroups bare;
  bare.nlocal = a.nlocal();
  bare.groups.push_back({0, {0, 1, 2}, {}});
  EXPECT_THROW(lj.split_begin(a, l, true, &bare), std::logic_error);

  // A built partition with one footprint dropped.
  ForceGroups dropped = ForceGroups::build(a, sub, 1.0, l, true);
  dropped.groups.back().footprint.clear();
  EXPECT_THROW(lj.split_begin(a, l, true, &dropped), std::logic_error);

  // Footprints built for a different atom set.
  const ForceGroups fg = ForceGroups::build(a, sub, 1.0, l, true);
  EXPECT_NO_THROW(lj.split_begin(a, l, true, &fg));
  Atoms fewer_ghosts = cluster_with_ghosts(30, 4, 4.0, 13u);
  EXPECT_THROW(lj.split_begin(fewer_ghosts, l, true, &fg), std::logic_error);
}

}  // namespace
}  // namespace lmp::md
