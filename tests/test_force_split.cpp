#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
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

TEST(ForceGroups, InteriorAtomsFormSingleMaskZeroGroup) {
  Atoms a = cluster(40, 4.0, 7u);
  // Sub-box far larger than the cluster: nothing is within rc of a face.
  const geom::Box sub{{-100, -100, -100}, {100, 100, 100}};
  const ForceGroups fg = ForceGroups::build(a, sub, 2.5);
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
  const ForceGroups fg = ForceGroups::build(a, sub, 1.0);

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
  EXPECT_THROW(ForceGroups::build(a, sub, 0.0), std::invalid_argument);
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
  const ForceGroups fg = ForceGroups::build(b, sub, 2.0);
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
    const ForceGroups fga = ForceGroups::build(a, sub, 2.0);
    const ForceGroups fgb = ForceGroups::build(b, sub, 2.0);
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
  const ForceGroups fg = ForceGroups::build(b, sub, 3.0);
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
    const ForceGroups fga = ForceGroups::build(a, sub, 3.0);
    const ForceGroups fgb = ForceGroups::build(b, sub, 3.0);
    ASSERT_GT(fga.ngroups(), 1);

    const ForceResult fwd = run_split(eam_a, a, la, newton, fga, false);
    const ForceResult rev = run_split(eam_b, b, lb, newton, fgb, true);
    expect_bitwise(a, fwd, b, rev);
  }
}

}  // namespace
}  // namespace lmp::md
