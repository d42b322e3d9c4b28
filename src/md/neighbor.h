#pragma once

#include <cstddef>
#include <limits>
#include <memory>
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
/// atoms. Bin size >= the neighbor cutoff (cutoff + skin), so a pair's
/// two atoms sit in the same or adjacent bins.
///
/// Rows come out in canonical order (by neighbor tag, coordinates z, y, x
/// breaking ties between periodic images), so the pair-force summation
/// order — and therefore the trajectory — does not depend on the ghost
/// placement order of the comm variant that built the halo. The order
/// comes from the traversal, not from sorting rows: the locals are
/// counting-sorted into bins with their coordinates copied in bin order,
/// every atom j is visited once in canonical order, the locals i in the
/// bins around j that keep the pair are emitted (bins whose locals'
/// bounding box lies beyond the cutoff are skipped), and a stable
/// scatter by i lays the rows out.
///
/// In-place contract: the `out` forms overwrite every field of `out`
/// (sizes set exactly, nothing of the previous list survives) and reuse
/// its storage and the builder's scratch, so a rebuild whose sizes fit
/// what earlier builds saw allocates nothing. The scratch makes a builder
/// single-threaded: concurrent builds need one builder each.
class NeighborBuilder {
 public:
  explicit NeighborBuilder(double neighbor_cutoff);

  /// Half list (Newton's 3rd law on): local-local pairs once (i < j),
  /// local-ghost pairs per `rule`.
  NeighborList build_half(const Atoms& atoms, HalfRule rule) const;
  void build_half(const Atoms& atoms, HalfRule rule, NeighborList& out) const;

  /// Full list (Newton off / many-body potentials): every neighbor of
  /// every local atom, both directions of local-local pairs.
  NeighborList build_full(const Atoms& atoms) const;
  void build_full(const Atoms& atoms, NeighborList& out) const;

 private:
  /// Per-build working storage, kept between builds.
  struct Scratch {
    std::vector<int> bin_start;   ///< locals of bin b: [bin_start[b], bin_start[b+1])
    std::vector<double> bin_box;  ///< per bin: min xyz, max xyz of its locals
    std::vector<int> local_bin;   ///< bin of each local
    std::vector<int> bin_atom;    ///< local indices in bin order
    std::vector<double> bin_pos;  ///< their x, y, z planes, in bin order
    std::vector<int> order;       ///< all atoms in canonical order
    std::vector<int> order_tmp;   ///< radix-pass double buffer
    std::vector<int> emit_start;  ///< emissions of order[k]: [emit_start[k], emit_start[k+1])
    std::unique_ptr<int[]> emit;  ///< emitted row owners i (uninitialized tail)
    std::size_t emit_cap = 0;

    /// `emit` with room for `need` entries, the first `used` kept.
    int* reserve_emit(std::size_t need, int used, int nlocal);
  };
  void build(const Atoms& atoms, bool full, HalfRule rule, NeighborList& out) const;

  double cutoff_;
  mutable Scratch s_;
};

}  // namespace lmp::md
