#include "md/neighbor.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <numeric>
#include <stdexcept>

namespace lmp::md {

namespace {

/// Which locals i near atom j keep the pair in row i.
enum class Keep {
  kAll,       ///< ghost j on a full list or under kAllGhosts
  kNotSelf,   ///< local j on a full list: every other local
  kBelow,     ///< local j on a half list: locals i < j (each pair once);
              ///< a bin prefix, scanned as kAll
  kTieBreak,  ///< ghost j under kCoordTieBreak: locals j beats in (z, y, x)
};

/// Bins of width >= the cutoff over the atoms' bounding box.
struct Grid {
  int dims[3];
  double lo[3];
  double inv_size[3];

  int of(const double* p, int d) const {
    const int b = static_cast<int>((p[d] - lo[d]) * inv_size[d]);
    return std::clamp(b, 0, dims[d] - 1);
  }
  int index(int bx, int by, int bz) const {
    return bx + dims[0] * (by + dims[1] * bz);
  }
};

/// Emit the locals `bin_atom[k0..k1)` (coordinate planes `xs`, `ys`,
/// `zs`) that keep the pair with atom j. Branch-free: every candidate is
/// written at the cursor, which advances only past the kept ones.
template <Keep kKeep>
int scan(const double* xs, const double* ys, const double* zs, const int* bin_atom,
         int k0, int k1, const double* pj, int j, double cut2, int* emit, int n) {
  const double xj = pj[0], yj = pj[1], zj = pj[2];
  for (int k = k0; k < k1; ++k) {
    const double xi = xs[k], yi = ys[k], zi = zs[k];
    const double ddx = xi - xj;
    const double ddy = yi - yj;
    const double ddz = zi - zj;
    bool keep = ddx * ddx + ddy * ddy + ddz * ddz < cut2;
    if constexpr (kKeep == Keep::kNotSelf) keep = keep & (bin_atom[k] != j);
    if constexpr (kKeep == Keep::kTieBreak) {
      keep = keep & ((zj > zi) | ((zj == zi) & ((yj > yi) | ((yj == yi) & (xj > xi)))));
    }
    emit[n] = bin_atom[k];
    n += keep;
  }
  return n;
}

/// All atoms in canonical order: by tag (stable one-byte LSD radix passes
/// over the tag's offset from the smallest tag), then runs of one tag —
/// periodic images of one atom — by z, y, x.
void canonical_order(const Atoms& atoms, std::vector<int>& order,
                     std::vector<int>& tmp) {
  const int n = atoms.ntotal();
  order.resize(static_cast<std::size_t>(n));
  tmp.resize(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);

  std::int64_t tmin = atoms.tag(0), tmax = tmin;
  for (int i = 1; i < n; ++i) {
    tmin = std::min(tmin, atoms.tag(i));
    tmax = std::max(tmax, atoms.tag(i));
  }
  const auto key = [&](int i) {
    return static_cast<std::uint64_t>(atoms.tag(i)) - static_cast<std::uint64_t>(tmin);
  };
  const int bits = std::bit_width(static_cast<std::uint64_t>(tmax) -
                                  static_cast<std::uint64_t>(tmin));
  for (int shift = 0; shift < bits; shift += 8) {
    std::array<int, 257> start{};
    for (int k = 0; k < n; ++k) ++start[((key(order[k]) >> shift) & 0xff) + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (int k = 0; k < n; ++k) tmp[start[(key(order[k]) >> shift) & 0xff]++] = order[k];
    order.swap(tmp);
  }

  const double* x = atoms.x();
  const auto coord_less = [x](int a, int b) {
    if (x[3 * a + 2] != x[3 * b + 2]) return x[3 * a + 2] < x[3 * b + 2];
    if (x[3 * a + 1] != x[3 * b + 1]) return x[3 * a + 1] < x[3 * b + 1];
    return x[3 * a] < x[3 * b];
  };
  for (int k0 = 0; k0 < n;) {
    int k1 = k0 + 1;
    while (k1 < n && atoms.tag(order[k1]) == atoms.tag(order[k0])) ++k1;
    if (k1 - k0 > 1) std::sort(order.begin() + k0, order.begin() + k1, coord_less);
    k0 = k1;
  }
}

}  // namespace

int* NeighborBuilder::Scratch::reserve_emit(std::size_t need, int used, int nlocal) {
  if (need > emit_cap) {
    // 32 pairs per local covers a typical half list in one allocation;
    // each growth doubles, so a build reallocates a handful of times at
    // most, and only the written prefix is ever touched.
    const std::size_t cap =
        std::max({need, 2 * emit_cap, 32 * static_cast<std::size_t>(nlocal)});
    auto grown = std::make_unique_for_overwrite<int[]>(cap);
    std::copy_n(emit.get(), used, grown.get());
    emit = std::move(grown);
    emit_cap = cap;
  }
  return emit.get();
}

NeighborBuilder::NeighborBuilder(double neighbor_cutoff) : cutoff_(neighbor_cutoff) {
  if (neighbor_cutoff <= 0) throw std::invalid_argument("cutoff must be > 0");
}

NeighborList NeighborBuilder::build_half(const Atoms& atoms, HalfRule rule) const {
  NeighborList list;
  build_half(atoms, rule, list);
  return list;
}

NeighborList NeighborBuilder::build_full(const Atoms& atoms) const {
  NeighborList list;
  build_full(atoms, list);
  return list;
}

void NeighborBuilder::build_half(const Atoms& atoms, HalfRule rule,
                                 NeighborList& out) const {
  build(atoms, /*full=*/false, rule, out);
}

void NeighborBuilder::build_full(const Atoms& atoms, NeighborList& out) const {
  build(atoms, /*full=*/true, HalfRule::kCoordTieBreak, out);
}

void NeighborBuilder::build(const Atoms& atoms, bool full, HalfRule rule,
                            NeighborList& out) const {
  const int ntotal = atoms.ntotal();
  const int nlocal = atoms.nlocal();
  const double* x = atoms.x();
  Scratch& s = s_;

  out.full = full;
  out.offsets.assign(static_cast<std::size_t>(nlocal) + 1, 0);
  out.neigh.clear();
  if (nlocal == 0) return;

  // Bin extents cover every atom (ghosts stick out past the sub-box).
  Grid g;
  double hi[3];
  for (int d = 0; d < 3; ++d) g.lo[d] = hi[d] = x[d];
  for (int i = 1; i < ntotal; ++i) {
    for (int d = 0; d < 3; ++d) {
      g.lo[d] = std::min(g.lo[d], x[3 * i + d]);
      hi[d] = std::max(hi[d], x[3 * i + d]);
    }
  }
  for (int d = 0; d < 3; ++d) {
    const double extent = std::max(hi[d] - g.lo[d], 1e-12);
    g.dims[d] = std::max(1, static_cast<int>(extent / cutoff_));
    g.inv_size[d] = g.dims[d] / extent * (1.0 - 1e-12);
  }
  const int nbins = g.dims[0] * g.dims[1] * g.dims[2];

  // Counting sort of the locals into bins, coordinates copied along in
  // x/y/z planes, so each bin — and each row of three x-adjacent bins —
  // is one contiguous run. Each bin also records the bounding box of its
  // locals.
  s.bin_start.assign(static_cast<std::size_t>(nbins) + 1, 0);
  s.bin_box.assign(6 * static_cast<std::size_t>(nbins), 0.0);
  s.local_bin.resize(static_cast<std::size_t>(nlocal));
  s.bin_atom.resize(static_cast<std::size_t>(nlocal));
  s.bin_pos.resize(3 * static_cast<std::size_t>(nlocal));
  int* start = s.bin_start.data();
  double* box = s.bin_box.data();
  for (int i = 0; i < nlocal; ++i) {
    const double* p = x + 3 * i;
    const int b = g.index(g.of(p, 0), g.of(p, 1), g.of(p, 2));
    s.local_bin[static_cast<std::size_t>(i)] = b;
    double* bb = box + 6 * b;
    for (int d = 0; d < 3; ++d) {
      bb[d] = start[b] == 0 ? p[d] : std::min(bb[d], p[d]);
      bb[3 + d] = start[b] == 0 ? p[d] : std::max(bb[3 + d], p[d]);
    }
    ++start[b];
  }
  std::partial_sum(start, start + nbins, start);  // start[b] = end of bin b
  start[nbins] = nlocal;
  // Placed back to front: start[b] walks down to the bin's start, and
  // each bin lists its locals in ascending index order.
  double* px = s.bin_pos.data();
  double* py = px + nlocal;
  double* pz = py + nlocal;
  for (int i = nlocal - 1; i >= 0; --i) {
    const int k = --start[s.local_bin[static_cast<std::size_t>(i)]];
    s.bin_atom[static_cast<std::size_t>(k)] = i;
    px[k] = x[3 * i];
    py[k] = x[3 * i + 1];
    pz[k] = x[3 * i + 2];
  }

  canonical_order(atoms, s.order, s.order_tmp);

  // Emission: atoms j in canonical order, each followed by the locals i
  // whose row keeps it.
  const double cut2 = cutoff_ * cutoff_;
  const bool tie_break = !full && rule == HalfRule::kCoordTieBreak;
  s.emit_start.resize(static_cast<std::size_t>(ntotal) + 1);
  const int* bin_atom = s.bin_atom.data();
  int n = 0;
  for (int k = 0; k < ntotal; ++k) {
    const int j = s.order[static_cast<std::size_t>(k)];
    s.emit_start[static_cast<std::size_t>(k)] = n;
    const double* pj = x + 3 * j;
    const int bx = g.of(pj, 0), by = g.of(pj, 1), bz = g.of(pj, 2);
    Keep keep = Keep::kAll;
    if (j < nlocal) {
      keep = full ? Keep::kNotSelf : Keep::kBelow;
    } else if (tie_break) {
      keep = Keep::kTieBreak;
    }
    // Bin indices are monotone in the coordinate, so a local in a bin
    // above j's in z has the larger z and never loses the tie-break to j.
    const int z1 = std::min(bz + (keep == Keep::kTieBreak ? 0 : 1), g.dims[2] - 1);
    const int y1 = std::min(by + 1, g.dims[1] - 1);
    const int x1 = std::min(bx + 1, g.dims[0] - 1);
    for (int cz = std::max(bz - 1, 0); cz <= z1; ++cz) {
      for (int cy = std::max(by - 1, 0); cy <= y1; ++cy) {
        for (int cx = std::max(bx - 1, 0); cx <= x1; ++cx) {
          const int b = g.index(cx, cy, cz);
          const int k0 = start[b];
          int k1 = start[b + 1];
          if (k0 == k1) continue;
          // The gap from j to the bin's bounding box bounds every
          // candidate's distance from below, in floating point too
          // (rounding is monotone), so a bin beyond the cutoff holds
          // no pair.
          const double* bb = box + 6 * b;
          const double gx = std::max({0.0, bb[0] - pj[0], pj[0] - bb[3]});
          const double gy = std::max({0.0, bb[1] - pj[1], pj[1] - bb[4]});
          const double gz = std::max({0.0, bb[2] - pj[2], pj[2] - bb[5]});
          if (!(gx * gx + gy * gy + gz * gz < cut2)) continue;
          if (keep == Keep::kBelow) {
            k1 = static_cast<int>(std::lower_bound(bin_atom + k0, bin_atom + k1, j) -
                                  bin_atom);
            if (k0 == k1) continue;
          }
          int* e = s.reserve_emit(static_cast<std::size_t>(n + (k1 - k0)), n, nlocal);
          switch (keep) {
            case Keep::kAll:
            case Keep::kBelow:
              n = scan<Keep::kAll>(px, py, pz, bin_atom, k0, k1, pj, j, cut2, e, n);
              break;
            case Keep::kNotSelf:
              n = scan<Keep::kNotSelf>(px, py, pz, bin_atom, k0, k1, pj, j, cut2, e, n);
              break;
            case Keep::kTieBreak:
              n = scan<Keep::kTieBreak>(px, py, pz, bin_atom, k0, k1, pj, j, cut2, e, n);
              break;
          }
        }
      }
    }
  }
  s.emit_start[static_cast<std::size_t>(ntotal)] = n;

  // Stable scatter by row owner: row i receives its neighbors in emission
  // order, which is canonical order. Filled back to front, so each
  // offsets[i] walks from the row's end down to its start.
  const int* e = s.emit.get();
  int* off = out.offsets.data();
  for (int p = 0; p < n; ++p) ++off[e[p]];
  std::partial_sum(off, off + nlocal, off);
  off[nlocal] = n;
  out.neigh.resize(static_cast<std::size_t>(n));
  int* neigh = out.neigh.data();
  for (int k = ntotal - 1; k >= 0; --k) {
    const int j = s.order[static_cast<std::size_t>(k)];
    for (int p = s.emit_start[static_cast<std::size_t>(k) + 1] - 1;
         p >= s.emit_start[static_cast<std::size_t>(k)]; --p) {
      neigh[--off[e[p]]] = j;
    }
  }
}

}  // namespace lmp::md
