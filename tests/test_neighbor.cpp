#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

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

/// O(N^2) reference: every local's row from the pair rules alone, with
/// the same distance expression, sorted by (tag, z, y, x).
NeighborList brute_force(const Atoms& a, double cut, bool full, HalfRule rule) {
  const double* x = a.x();
  const double cut2 = cut * cut;
  NeighborList l;
  l.full = full;
  l.offsets.push_back(0);
  for (int i = 0; i < a.nlocal(); ++i) {
    std::vector<int> row;
    for (int j = 0; j < a.ntotal(); ++j) {
      if (j == i) continue;
      if (!full) {
        if (j < a.nlocal()) {
          if (j < i) continue;
        } else if (rule == HalfRule::kCoordTieBreak) {
          const Vec3 pi = a.pos(i), pj = a.pos(j);
          const bool ghost_wins =
              pj.z > pi.z ||
              (pj.z == pi.z && (pj.y > pi.y || (pj.y == pi.y && pj.x > pi.x)));
          if (!ghost_wins) continue;
        }
      }
      const double ddx = x[3 * i] - x[3 * j];
      const double ddy = x[3 * i + 1] - x[3 * j + 1];
      const double ddz = x[3 * i + 2] - x[3 * j + 2];
      if (ddx * ddx + ddy * ddy + ddz * ddz < cut2) row.push_back(j);
    }
    std::sort(row.begin(), row.end(), [&](int p, int q) {
      const Vec3 pp = a.pos(p), pq = a.pos(q);
      if (a.tag(p) != a.tag(q)) return a.tag(p) < a.tag(q);
      if (pp.z != pq.z) return pp.z < pq.z;
      if (pp.y != pq.y) return pp.y < pq.y;
      return pp.x < pq.x;
    });
    l.neigh.insert(l.neigh.end(), row.begin(), row.end());
    l.offsets.push_back(static_cast<int>(l.neigh.size()));
  }
  return l;
}

/// A periodic cube of side `box` on a grid of pitch `pitch` (points on
/// every bin face when the pitch divides the bin width), jittered by
/// `jitter`, locals stored in shuffled tag order, and ghosts that are
/// periodic images (same tag) within `shell` of the cube: on every side,
/// or only on the upper side of each axis.
Atoms periodic_block(double box, double pitch, double jitter, double shell,
                     bool upper_only, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Vec3> pos;
  const int n = static_cast<int>(box / pitch + 0.5);
  for (int iz = 0; iz < n; ++iz) {
    for (int iy = 0; iy < n; ++iy) {
      for (int ix = 0; ix < n; ++ix) {
        Vec3 p{ix * pitch, iy * pitch, iz * pitch};
        if (jitter > 0) {
          for (std::size_t d = 0; d < 3; ++d) {
            p[d] = std::clamp(p[d] + rng.uniform(-jitter, jitter), 0.0,
                              std::nextafter(box, 0.0));
          }
        }
        pos.push_back(p);
      }
    }
  }
  std::vector<int> tag(pos.size());
  for (std::size_t i = 0; i < tag.size(); ++i) tag[i] = static_cast<int>(i);
  for (std::size_t i = tag.size(); i > 1; --i) {
    std::swap(tag[i - 1], tag[rng.uniform_index(i)]);
  }
  Atoms a;
  a.reserve_capacity(static_cast<int>(pos.size()) * 27);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    a.add_local(pos[i], {0, 0, 0}, tag[i]);
  }
  const int lo = upper_only ? 0 : -1;
  for (int sz = lo; sz <= 1; ++sz) {
    for (int sy = lo; sy <= 1; ++sy) {
      for (int sx = lo; sx <= 1; ++sx) {
        if (sx == 0 && sy == 0 && sz == 0) continue;
        for (std::size_t i = 0; i < pos.size(); ++i) {
          const Vec3 p{pos[i].x + sx * box, pos[i].y + sy * box, pos[i].z + sz * box};
          bool near = true;
          for (std::size_t d = 0; d < 3; ++d) {
            near = near && p[d] >= -shell && p[d] < box + shell;
          }
          if (near) a.add_ghost(p, tag[i]);
        }
      }
    }
  }
  return a;
}

void expect_same_list(const NeighborList& got, const NeighborList& want,
                      const std::string& what) {
  EXPECT_EQ(got.full, want.full) << what;
  EXPECT_EQ(got.offsets, want.offsets) << what;
  EXPECT_EQ(got.neigh, want.neigh) << what;
}

TEST(Neighbor, RowsMatchBruteForceCanonicalOrder) {
  struct Case {
    const char* name;
    double box, pitch, jitter, shell, cut;
    bool upper_only;
  };
  const Case cases[] = {
      // Atoms span [0, 6] (ghosts at 6), so the cutoff 1.5 makes four
      // bins of width 1.5 and every fourth grid plane lies on a bin face;
      // grid pairs at exactly the cutoff distance are excluded.
      {"on bin faces", 6.0, 0.75, 0.0, 0.75, 1.5, true},
      {"jittered images", 5.0, 1.0, 0.2, 1.6, 1.6, false},
      {"upper ghosts only", 5.0, 1.0, 0.2, 1.6, 1.6, true},
      // Extent below the cutoff: one bin per axis, every image a pair.
      {"one bin per axis", 1.0, 0.5, 0.1, 2.5, 2.5, false},
  };
  for (const Case& c : cases) {
    const Atoms a = periodic_block(c.box, c.pitch, c.jitter, c.shell,
                                   c.upper_only, 11);
    const NeighborBuilder b(c.cut);
    const std::string what = c.name;
    expect_same_list(b.build_full(a), brute_force(a, c.cut, true, HalfRule::kCoordTieBreak),
                     what + ": full");
    for (const HalfRule rule : {HalfRule::kCoordTieBreak, HalfRule::kAllGhosts}) {
      expect_same_list(b.build_half(a, rule), brute_force(a, c.cut, false, rule),
                       what + ": half rule " + std::to_string(static_cast<int>(rule)));
    }
  }
}

TEST(Neighbor, InPlaceRebuildLeavesNoStaleEntries) {
  // One list and one builder across builds that grow and shrink the
  // atom count and switch the list kind: each result must equal a fresh
  // by-value build exactly.
  const NeighborBuilder b(1.6);
  NeighborList reused;
  const double boxes[] = {4.0, 7.0, 3.0, 6.0, 2.0, 7.0};
  for (int round = 0; round < 6; ++round) {
    const Atoms a = periodic_block(boxes[round], 1.0, 0.2, 1.6, round % 2 == 1,
                                   static_cast<std::uint64_t>(100 + round));
    const std::string what = "round " + std::to_string(round);
    if (round % 3 == 0) {
      b.build_full(a, reused);
      expect_same_list(reused, b.build_full(a), what);
      expect_same_list(reused, brute_force(a, 1.6, true, HalfRule::kCoordTieBreak), what);
    } else {
      const HalfRule rule = round % 3 == 1 ? HalfRule::kCoordTieBreak : HalfRule::kAllGhosts;
      b.build_half(a, rule, reused);
      expect_same_list(reused, brute_force(a, 1.6, false, rule), what);
    }
  }
  Atoms empty;
  empty.reserve_capacity(1);
  b.build_half(empty, HalfRule::kAllGhosts, reused);
  EXPECT_EQ(reused.offsets, std::vector<int>{0});
  EXPECT_TRUE(reused.neigh.empty());
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
