#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <utility>

#include "md/neighbor.h"
#include "util/rng.h"

namespace lmp::md {
namespace {

/// Random atoms in [0, L)^3 with a ghost fringe.
Atoms random_atoms(int nlocal, int nghost, double box, std::uint64_t seed) {
  util::Rng rng(seed);
  Atoms a;
  a.reserve_capacity(nlocal + nghost + 8);
  for (int i = 0; i < nlocal; ++i) {
    a.add_local({rng.uniform(0, box), rng.uniform(0, box), rng.uniform(0, box)},
                {0, 0, 0}, i);
  }
  for (int g = 0; g < nghost; ++g) {
    // Ghosts live in a shell of thickness 1 around the box.
    const double side = rng.uniform_index(3);
    Vec3 p{rng.uniform(-1, box + 1), rng.uniform(-1, box + 1),
           rng.uniform(-1, box + 1)};
    p[static_cast<std::size_t>(side)] = rng.uniform() < 0.5
                                            ? rng.uniform(-1.0, 0.0)
                                            : rng.uniform(box, box + 1.0);
    a.add_ghost(p, 1000 + g);
  }
  return a;
}

double dist2(const Atoms& a, int i, int j) {
  const Vec3 d = a.pos(i) - a.pos(j);
  return norm_sq(d);
}

std::set<std::pair<int, int>> as_pairs(const NeighborList& l) {
  std::set<std::pair<int, int>> out;
  for (int i = 0; i + 1 < static_cast<int>(l.offsets.size()); ++i) {
    for (int k = l.offsets[i]; k < l.offsets[i + 1]; ++k) {
      out.insert({i, l.neigh[static_cast<std::size_t>(k)]});
    }
  }
  return out;
}

TEST(Neighbor, FullListMatchesBruteForce) {
  const Atoms a = random_atoms(60, 20, 5.0, 1);
  const double cut = 1.3;
  const NeighborBuilder b(cut);
  const auto pairs = as_pairs(b.build_full(a));

  for (int i = 0; i < a.nlocal(); ++i) {
    for (int j = 0; j < a.ntotal(); ++j) {
      if (i == j) continue;
      const bool within = dist2(a, i, j) < cut * cut;
      EXPECT_EQ(pairs.count({i, j}) == 1, within)
          << "pair " << i << "," << j;
    }
  }
}

TEST(Neighbor, HalfListLocalPairsOnce) {
  const Atoms a = random_atoms(80, 0, 5.0, 2);
  const NeighborBuilder b(1.5);
  const auto pairs = as_pairs(b.build_half(a, HalfRule::kCoordTieBreak));
  for (const auto& [i, j] : pairs) {
    EXPECT_LT(i, j);
    EXPECT_EQ(pairs.count({j, i}), 0u);
  }
}

TEST(Neighbor, HalfListCountsHalfOfFull) {
  const Atoms a = random_atoms(100, 0, 5.0, 3);
  const NeighborBuilder b(1.5);
  EXPECT_EQ(2 * b.build_half(a, HalfRule::kCoordTieBreak).total_pairs(),
            b.build_full(a).total_pairs());
}

TEST(Neighbor, TieBreakKeepsGhostPairWhenGhostGreater) {
  Atoms a;
  a.reserve_capacity(4);
  a.add_local({1.0, 1.0, 1.0}, {0, 0, 0}, 0);
  a.add_ghost({1.0, 1.0, 1.5}, 10);  // greater z: kept
  a.add_ghost({1.0, 1.0, 0.5}, 11);  // lower z: dropped
  const NeighborBuilder b(1.0);
  const auto pairs = as_pairs(b.build_half(a, HalfRule::kCoordTieBreak));
  EXPECT_EQ(pairs.count({0, 1}), 1u);
  EXPECT_EQ(pairs.count({0, 2}), 0u);
}

TEST(Neighbor, TieBreakFallsThroughZyx) {
  Atoms a;
  a.reserve_capacity(4);
  a.add_local({1.0, 1.0, 1.0}, {0, 0, 0}, 0);
  a.add_ghost({1.5, 1.0, 1.0}, 10);  // same z, same y, greater x: kept
  a.add_ghost({0.5, 1.0, 1.0}, 11);  // same z, same y, lower x: dropped
  const NeighborBuilder b(1.0);
  const auto pairs = as_pairs(b.build_half(a, HalfRule::kCoordTieBreak));
  EXPECT_EQ(pairs.count({0, 1}), 1u);
  EXPECT_EQ(pairs.count({0, 2}), 0u);
}

TEST(Neighbor, AllGhostsRuleKeepsEveryGhostPair) {
  const Atoms a = random_atoms(40, 30, 4.0, 5);
  const double cut = 1.2;
  const NeighborBuilder b(cut);
  const auto pairs = as_pairs(b.build_half(a, HalfRule::kAllGhosts));
  for (int i = 0; i < a.nlocal(); ++i) {
    for (int j = a.nlocal(); j < a.ntotal(); ++j) {
      EXPECT_EQ(pairs.count({i, j}) == 1, dist2(a, i, j) < cut * cut);
    }
  }
}

TEST(Neighbor, GhostsNeverOwnLists) {
  const Atoms a = random_atoms(30, 30, 4.0, 6);
  const NeighborBuilder b(1.2);
  const NeighborList l = b.build_full(a);
  EXPECT_EQ(static_cast<int>(l.offsets.size()), a.nlocal() + 1);
}

TEST(Neighbor, EmptySystem) {
  Atoms a;
  a.reserve_capacity(4);
  const NeighborBuilder b(1.0);
  const NeighborList l = b.build_full(a);
  EXPECT_EQ(l.total_pairs(), 0);
}

TEST(Neighbor, CountMatchesDensityEstimate) {
  // At uniform density, <neighbors> ~ 4/3 pi r^3 rho.
  const int n = 4000;
  const double box = 10.0;
  const Atoms a = random_atoms(n, 0, box, 7);
  const double cut = 1.5;
  const NeighborBuilder b(cut);
  const NeighborList l = b.build_full(a);
  const double rho = n / (box * box * box);
  const double expected = 4.0 / 3.0 * M_PI * cut * cut * cut * rho;
  // Boundary atoms see fewer neighbors (no periodic ghosts here), so the
  // average sits below the bulk estimate but within ~40%.
  const double avg = static_cast<double>(l.total_pairs()) / n;
  EXPECT_GT(avg, 0.55 * expected);
  EXPECT_LT(avg, 1.05 * expected);
}

TEST(Neighbor, InvalidCutoffThrows) {
  EXPECT_THROW(NeighborBuilder(0.0), std::invalid_argument);
  EXPECT_THROW(NeighborBuilder(-1.0), std::invalid_argument);
}

TEST(Neighbor, PartnerWriteLimitFollowsListKindAndNewton) {
  NeighborList half;
  EXPECT_EQ(half.partner_write_limit(true, 10), std::numeric_limits<int>::max());
  EXPECT_EQ(half.partner_write_limit(false, 10), 10);  // locals only
  NeighborList full;
  full.full = true;
  EXPECT_EQ(full.partner_write_limit(true, 10), 0);
  EXPECT_EQ(full.partner_write_limit(false, 10), 0);
}

}  // namespace
}  // namespace lmp::md
