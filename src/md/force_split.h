#pragma once

#include <vector>

#include "geom/box.h"
#include "md/atoms.h"
#include "md/neighbor.h"

namespace lmp::md {

/// Band-mask bit layout for the interior/border force partition: two
/// bits per axis, set when the atom sits within `rc` of that face of the
/// owning sub-box. An atom with mask 0 is *interior*: since the neighbor
/// list admits pairs strictly under rc and every ghost lies at least rc
/// away from the interior band on some axis, an interior atom's rows can
/// never reference a ghost — its force task needs no ghost exchange.
enum BandBit : int {
  kLowX = 1 << 0,
  kHighX = 1 << 1,
  kLowY = 1 << 2,
  kHighY = 1 << 3,
  kLowZ = 1 << 4,
  kHighZ = 1 << 5,
};

/// One force task's atom set: the local atoms sharing a band mask, in
/// ascending local index order (which is ascending build order, so the
/// in-group accumulation order is deterministic).
///
/// `footprint` is every local and ghost index the group's kernels may
/// write in this neighbor epoch, ascending: its own rows plus each
/// neighbor `j` a half list lets a kernel update
/// (`j < NeighborList::partner_write_limit`). A group's private buffers
/// are zeroed and reduced over exactly these entries; on a full list it
/// is the rows.
struct ForceGroup {
  int mask = 0;
  std::vector<int> atoms;
  std::vector<int> footprint;
};

/// Comm-scheme-independent partition of the local atoms for the split
/// force path. Groups are held in ascending mask order — that order IS
/// the canonical reduction order both executors use, so the partition
/// (and therefore the arithmetic) is identical across comm variants and
/// executors: it depends only on positions at rebuild, the sub-box, and
/// the neighbor cutoff.
struct ForceGroups {
  std::vector<ForceGroup> groups;  ///< ascending mask; interior first when present
  int nlocal = 0;                  ///< local atom count at build time
  int ntotal = -1;                 ///< atom count the footprints index; -1: none

  /// Classify by position against the sub-box bands of width `rc`
  /// (`rc` = neighbor cutoff = pair cutoff + skin, the same width the
  /// border stage uses to select ghosts), then derive each group's
  /// footprint from the epoch's neighbor list `list` and `newton`. Call
  /// at every neighbor rebuild: group membership and footprints must
  /// match the epoch's list. Reuses this object's storage, so a
  /// steady-state rebuild allocates nothing.
  void rebuild(const Atoms& atoms, const geom::Box& sub, double rc,
               const NeighborList& list, bool newton);

  /// rebuild() into a fresh object.
  static ForceGroups build(const Atoms& atoms, const geom::Box& sub,
                           double rc, const NeighborList& list, bool newton);

  int ngroups() const { return static_cast<int>(groups.size()); }

 private:
  std::vector<int> stamp_;  ///< per atom: band mask, then last footprint group
};

/// True when a group with band mask `mask` can have neighbor-list rows
/// that reference ghosts imported from the direction (dx, dy, dz),
/// components in {-1, 0, +1}. A ghost on the +x side satisfies
/// x >= sub.hi.x, so a local partner must sit in the high-x band; axes
/// with a zero component impose no constraint. The sim layer uses this
/// to wire border force tasks to the forward-completion task of exactly
/// the directions they read.
bool group_reads_dir(int mask, int dx, int dy, int dz);

}  // namespace lmp::md
