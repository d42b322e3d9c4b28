#pragma once

#include <limits>
#include <vector>

#include "md/atoms.h"

namespace lmp::md {

/// Which pairs a *half* list keeps when ghosts are present.
enum class HalfRule {
  /// Ghost pairs filtered by the LAMMPS coordinate tie-break (z, then y,
  /// then x greater than mine). Needed when ghosts surround the sub-box
  /// on all 26 sides (3-stage comm): both owners see the pair and exactly
  /// one must keep it.
  kCoordTieBreak,
  /// Keep every local-ghost pair. Correct for the p2p half-shell exchange
  /// (paper Fig. 5): ghosts only come from the upper 13 directions, so a
  /// cross-rank pair exists on exactly one rank by construction.
  kAllGhosts,
};

/// CSR neighbor list: neighbors of local atom i are
/// `neigh[offsets[i] .. offsets[i+1])`.
struct NeighborList {
  bool full = false;
  std::vector<int> offsets;
  std::vector<int> neigh;

  int count(int i) const { return offsets[i + 1] - offsets[i]; }
  long total_pairs() const { return static_cast<long>(neigh.size()); }

  /// The partner-write rule: a pair kernel updates neighbor j too
  /// (Newton's third law) iff j < this bound. None on a full list, only
  /// locals on a half list without Newton, every neighbor otherwise
  /// (ghost updates are reverse-communicated by the caller).
  int partner_write_limit(bool newton, int nlocal) const {
    if (full) return 0;
    return newton ? std::numeric_limits<int>::max() : nlocal;
  }
};

/// Spatial-binning neighbor-list builder over one rank's local + ghost
/// atoms. Bin size >= the neighbor cutoff (cutoff + skin), so candidate
/// pairs live in the surrounding 27 bins.
///
/// Each atom's row is sorted canonically (by neighbor tag, coordinates
/// breaking ties between periodic images), so the pair-force summation
/// order — and therefore the trajectory — does not depend on the ghost
/// placement order of the comm variant that built the halo.
class NeighborBuilder {
 public:
  explicit NeighborBuilder(double neighbor_cutoff);

  /// Half list (Newton's 3rd law on): local-local pairs once (i < j),
  /// local-ghost pairs per `rule`.
  NeighborList build_half(const Atoms& atoms, HalfRule rule) const;

  /// Full list (Newton off / many-body potentials): every neighbor of
  /// every local atom, both directions of local-local pairs.
  NeighborList build_full(const Atoms& atoms) const;

 private:
  struct Bins;
  NeighborList build(const Atoms& atoms, bool full, HalfRule rule) const;

  double cutoff_;
};

}  // namespace lmp::md
