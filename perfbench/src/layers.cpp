#include "layers.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <numeric>
#include <span>
#include <thread>
#include <vector>

#include "comm/pack_kernels.h"
#include "geom/lattice.h"
#include "md/eam.h"
#include "md/eam_table.h"
#include "md/integrate.h"
#include "md/lj.h"
#include "md/neighbor.h"
#include "md/velocity.h"
#include "minimpi/world.h"
#include "sim/checkpoint.h"
#include "threadpool/forkjoin.h"
#include "threadpool/spin_pool.h"
#include "tofu/network.h"
#include "tofu/utofu.h"
#include "util/rng.h"

namespace perfbench {

namespace md = lmp::md;
namespace geom = lmp::geom;
namespace util = lmp::util;

namespace {

constexpr std::size_t kMinBatches = 5;
constexpr std::size_t kMaxBatches = 200;
constexpr double kBatchSeconds = 0.01;

/// Keeps the compiler from assuming anything about `p`'s pointee.
inline void escape(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

/// Calls `body` in batches, one span per batch, until `budget_s` has
/// passed (at least kMinBatches). A first untimed call warms caches and
/// sizes the batch to about kBatchSeconds. Returns the seconds per unit
/// of work of every batch.
template <class F>
std::vector<double> batches(SpanLog& log, const char* name, double budget_s,
                            double work_per_call, F&& body) {
  const std::int64_t c0 = steady_ns();
  body();
  const double call_s = std::max(1e-9, 1e-9 * static_cast<double>(steady_ns() - c0));
  const int reps = std::max(1, static_cast<int>(kBatchSeconds / call_s));

  std::vector<double> per_unit;
  const std::int64_t end = steady_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  while (per_unit.size() < kMinBatches ||
         (steady_ns() < end && per_unit.size() < kMaxBatches)) {
    SpanLog::Scope s(log, name);
    for (int i = 0; i < reps; ++i) body();
    s.set_work(reps * work_per_call);
    s.close();
    per_unit.push_back(s.span().seconds() / s.span().work);
  }
  return per_unit;
}

std::vector<double> scaled(std::vector<double> v, double k) {
  for (double& x : v) x *= k;
  return v;
}

std::vector<double> gbps(std::vector<double> s_per_byte) {
  for (double& x : s_per_byte) x = 1e-9 / x;
  return s_per_byte;
}

/// The workload's fcc lattice, jittered by `seed`, with the periodic
/// images within the neighbor cutoff of the box added as ghosts on all
/// 26 sides (the brick pattern a 1-rank `ref` run builds).
md::Atoms fcc_block(const Workload& w, std::uint64_t seed) {
  const md::SimConfig& cfg = w.options.config;
  const geom::FccLattice lat =
      cfg.units.style == md::UnitStyle::kLj
          ? geom::FccLattice::from_density(cfg.lattice_arg)
          : geom::FccLattice::from_constant(cfg.lattice_arg);
  const util::Int3& c = w.options.cells;
  std::vector<util::Vec3> pos = lat.generate(c.x, c.y, c.z);
  const geom::Box box = lat.box_for(c.x, c.y, c.z);
  util::Rng rng(seed);
  for (util::Vec3& p : pos) {
    p.x += 0.02 * lat.cell * (rng.uniform() - 0.5);
    p.y += 0.02 * lat.cell * (rng.uniform() - 0.5);
    p.z += 0.02 * lat.cell * (rng.uniform() - 0.5);
    p = box.wrap(p);
  }
  const std::vector<util::Vec3> vel = md::create_velocities(
      pos.size(), cfg.t_init, cfg.mass, cfg.units, seed);

  const double rc = cfg.neighbor_cutoff();
  const util::Vec3 len = box.extent();
  std::vector<std::pair<util::Vec3, std::int64_t>> ghosts;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    for (int sx = -1; sx <= 1; ++sx) {
      for (int sy = -1; sy <= 1; ++sy) {
        for (int sz = -1; sz <= 1; ++sz) {
          if (sx == 0 && sy == 0 && sz == 0) continue;
          const util::Vec3 q{pos[i].x + sx * len.x, pos[i].y + sy * len.y,
                             pos[i].z + sz * len.z};
          const bool near = q.x >= box.lo.x - rc && q.x < box.hi.x + rc &&
                            q.y >= box.lo.y - rc && q.y < box.hi.y + rc &&
                            q.z >= box.lo.z - rc && q.z < box.hi.z + rc;
          if (near) ghosts.emplace_back(q, static_cast<std::int64_t>(i));
        }
      }
    }
  }
  md::Atoms atoms;
  atoms.reserve_capacity(static_cast<int>(pos.size() + ghosts.size()));
  for (std::size_t i = 0; i < pos.size(); ++i) {
    atoms.add_local(pos[i], vel[i], static_cast<std::int64_t>(i));
  }
  for (const auto& [q, tag] : ghosts) atoms.add_ghost(q, tag);
  return atoms;
}

double useful_pair_fraction(const md::Atoms& atoms, const md::NeighborList& list,
                            double cutoff) {
  const double cut2 = cutoff * cutoff;
  long useful = 0;
  for (int i = 0; i < atoms.nlocal(); ++i) {
    const util::Vec3 pi = atoms.pos(i);
    for (int k = list.offsets[static_cast<std::size_t>(i)];
         k < list.offsets[static_cast<std::size_t>(i) + 1]; ++k) {
      const util::Vec3 d = atoms.pos(list.neigh[static_cast<std::size_t>(k)]) - pi;
      if (d.x * d.x + d.y * d.y + d.z * d.z < cut2) ++useful;
    }
  }
  return list.total_pairs() > 0
             ? static_cast<double>(useful) / static_cast<double>(list.total_pairs())
             : 0.0;
}

/// Atoms per message at the workload's mean message size (positions are
/// three doubles per atom), capped by the block.
int message_atoms(const LayerInputs& in, int nlocal) {
  const int n = static_cast<int>(std::lround(in.msg_bytes / (3.0 * sizeof(double))));
  return std::clamp(n, 1, nlocal);
}

}  // namespace

void measure_md(const LayerInputs& in, SpanLog& log, Report& rep) {
  const Workload& w = *in.workload;
  const md::SimConfig& cfg = w.options.config;
  md::Atoms atoms = fcc_block(w, in.seed);
  const int nlocal = atoms.nlocal();

  const md::NeighborBuilder neigh(cfg.neighbor_cutoff());
  rep.samples("md.neigh_build_ns_per_atom", "ns",
              scaled(batches(log, "layer.md.neigh_build", in.budget_s, nlocal,
                             [&] {
                               md::NeighborList l = neigh.build_half(
                                   atoms, md::HalfRule::kCoordTieBreak);
                               escape(l.neigh.data());
                             }),
                     1e9));
  const md::NeighborList list =
      neigh.build_half(atoms, md::HalfRule::kCoordTieBreak);
  rep.sample("md.neigh_useful_pair_frac", "ratio",
             useful_pair_fraction(atoms, list, cfg.cutoff));

  // The workload's potential is timed; the other one's metric reads 0.
  const bool lj = cfg.potential == md::PotentialKind::kLennardJones;
  std::unique_ptr<md::Potential> pot;
  if (lj) {
    pot = std::make_unique<md::LennardJones>(cfg.epsilon, cfg.sigma, cfg.cutoff);
  } else {
    pot = std::make_unique<md::Eam>(md::make_cu_like_table(2000, 2000, cfg.cutoff));
  }
  rep.samples(lj ? "md.lj_ns_per_pair" : "md.eam_ns_per_pair", "ns",
              scaled(batches(log, lj ? "layer.md.lj" : "layer.md.eam", in.budget_s,
                             static_cast<double>(list.total_pairs()),
                             [&] {
                               atoms.zero_forces();
                               const md::ForceResult r = pot->compute(atoms, list, true, nullptr);
                               escape(&r);
                             }),
                     1e9));
  rep.sample(lj ? "md.eam_ns_per_pair" : "md.lj_ns_per_pair", "ns", 0.0);

  const md::VerletNve nve(cfg.dt, cfg.mass, 1.0 / cfg.units.mvv2e);
  rep.samples("md.integrate_ns_per_atom", "ns",
              scaled(batches(log, "layer.md.integrate", in.budget_s, nlocal,
                             [&] {
                               nve.initial_integrate(atoms);
                               nve.final_integrate(atoms);
                             }),
                     1e9));
}

void measure_pack(const LayerInputs& in, SpanLog& log, Report& rep) {
  namespace comm = lmp::comm;
  md::Atoms atoms = fcc_block(*in.workload, in.seed);
  const int n = message_atoms(in, atoms.nlocal());

  // A seeded send list: n distinct owned atoms in ascending order.
  std::vector<int> list(static_cast<std::size_t>(atoms.nlocal()));
  std::iota(list.begin(), list.end(), 0);
  util::Rng rng(in.seed ^ 0x5eedULL);
  for (std::size_t i = list.size() - 1; i > 0; --i) {
    std::swap(list[i], list[static_cast<std::size_t>(rng.next_u64() % (i + 1))]);
  }
  list.resize(static_cast<std::size_t>(n));
  std::sort(list.begin(), list.end());

  const util::Vec3 shift{1.0, 0.0, 0.0};
  std::vector<double> buf(static_cast<std::size_t>(n) * comm::kBorderDoubles, 0.5);
  std::vector<double> ghost_x(static_cast<std::size_t>(n) * comm::kPositionDoubles);
  const double pos_bytes = static_cast<double>(n) * comm::kPositionDoubles * sizeof(double);
  const double border_bytes = static_cast<double>(n) * comm::kBorderDoubles * sizeof(double);
  const std::span<const double> pos_payload(buf.data(),
                                            static_cast<std::size_t>(n) * comm::kPositionDoubles);

  rep.samples("comm.pack_positions_gbps", "GB/s",
              gbps(batches(log, "layer.comm.pack_positions", in.budget_s, pos_bytes, [&] {
                comm::pack_positions(atoms.x(), list, shift, buf.data());
                escape(buf.data());
              })));
  rep.samples("comm.unpack_positions_gbps", "GB/s",
              gbps(batches(log, "layer.comm.unpack_positions", in.budget_s, pos_bytes, [&] {
                comm::unpack_positions(ghost_x.data(), 0, pos_payload);
                escape(ghost_x.data());
              })));
  rep.samples("comm.pack_border_gbps", "GB/s",
              gbps(batches(log, "layer.comm.pack_border", in.budget_s, border_bytes, [&] {
                comm::pack_border(atoms, list, shift, buf.data());
                escape(buf.data());
              })));
  rep.samples("comm.add_forces_gbps", "GB/s",
              gbps(batches(log, "layer.comm.add_forces", in.budget_s, pos_bytes, [&] {
                comm::add_forces(atoms.f(), list, pos_payload);
                escape(atoms.f());
              })));
}

void measure_fabric(const LayerInputs& in, SpanLog& log, Report& rep) {
  namespace tofu = lmp::tofu;
  if (!in.uses_fabric) {
    rep.sample("tofu.put_us", "us", 0.0);
    rep.sample("tofu.piggyback_us", "us", 0.0);
    return;
  }
  const auto bytes = static_cast<std::uint64_t>(std::max(8.0, std::round(in.msg_bytes)));
  tofu::Network net(2);
  tofu::UtofuContext a(net, 0);
  tofu::UtofuContext b(net, 1);
  tofu::RegisteredBuffer src = a.make_buffer(bytes);
  tofu::RegisteredBuffer dst = b.make_buffer(bytes);
  const tofu::VcqId va = a.create_vcq(0, 0);
  const tofu::VcqId vb = b.create_vcq(0, 0);
  rep.samples("tofu.put_us", "us",
              scaled(batches(log, "layer.tofu.put", in.budget_s, 1.0, [&] {
                net.put(va, vb, src.stadd(), 0, dst.stadd(), 0, bytes);
                net.wait_tcq(va);
                net.wait_mrq(vb);
              }), 1e6));
  std::uint64_t edata = 0;
  rep.samples("tofu.piggyback_us", "us",
              scaled(batches(log, "layer.tofu.piggyback", in.budget_s, 1.0, [&] {
                net.put_piggyback(va, vb, edata++);
                net.wait_tcq(va);
                net.wait_mrq(vb);
              }), 1e6));
}

void measure_minimpi(const LayerInputs& in, SpanLog& log, Report& rep) {
  namespace minimpi = lmp::minimpi;
  constexpr int kReps = 200;
  constexpr int kTag = 7;
  const std::vector<std::byte> payload(
      static_cast<std::size_t>(std::max(8.0, std::round(in.msg_bytes))));
  minimpi::World world(2);

  // kind 0: allreduce_sum, kind 1: sendrecv with the peer.
  auto batch = [&](int me, int kind) {
    for (int i = 0; i < kReps; ++i) {
      if (kind == 0) {
        const double s = world.allreduce_sum(me, 1.0);
        escape(&s);
      } else {
        const std::vector<std::byte> got = world.sendrecv(me, 1 - me, 1 - me, kTag, payload);
        escape(got.data());
      }
    }
  };

  // Rank 1 mirrors rank 0's batches; after each one rank 0 says through
  // an untimed allreduce whether another follows.
  std::exception_ptr peer_error;
  std::thread peer([&] {
    try {
      for (int kind = 0; kind < 2; ++kind) {
        do {
          batch(1, kind);
        } while (world.allreduce_max(1, 0.0) > 0.0);
      }
    } catch (...) {
      peer_error = std::current_exception();
    }
  });

  std::vector<double> us[2];
  try {
    for (int kind = 0; kind < 2; ++kind) {
      const std::int64_t end = steady_ns() + static_cast<std::int64_t>(in.budget_s * 1e9);
      for (bool more = true; more;) {
        SpanLog::Scope s(log, kind == 0 ? "layer.minimpi.allreduce" : "layer.minimpi.sendrecv");
        batch(0, kind);
        s.set_work(kReps);
        s.close();
        us[kind].push_back(1e6 * s.span().seconds() / kReps);
        more = us[kind].size() < kMinBatches ||
               (steady_ns() < end && us[kind].size() < kMaxBatches);
        world.allreduce_max(0, more ? 1.0 : 0.0);
      }
    }
  } catch (...) {
    world.poison("minimpi layer measurement failed");
    peer.join();
    throw;
  }
  peer.join();
  if (peer_error) std::rethrow_exception(peer_error);
  rep.samples("minimpi.allreduce_us", "us", us[0]);
  rep.samples("minimpi.sendrecv_us", "us", us[1]);
}

void measure_pools(const LayerInputs& in, SpanLog& log, Report& rep) {
  namespace pool = lmp::pool;
  {
    pool::SpinThreadPool spin(2);
    rep.samples("threadpool.spin_dispatch_us", "us",
                scaled(batches(log, "layer.threadpool.spin_dispatch", in.budget_s, 1.0,
                               [&] { spin.parallel_static([](int) {}); }),
                       1e6));
  }
  {
    pool::ForkJoinPool fj(2);
    rep.samples("threadpool.forkjoin_dispatch_us", "us",
                scaled(batches(log, "layer.threadpool.forkjoin_dispatch", in.budget_s, 1.0,
                               [&] { fj.parallel([](int) {}); }),
                       1e6));
  }
}

void measure_checkpoint_hash(const LayerInputs& in, SpanLog& log, Report& rep) {
  namespace sim = lmp::sim;
  const Workload& w = *in.workload;
  sim::CheckpointState st;
  st.step = w.nsteps();
  st.checkpoint_every = w.options.checkpoint_every;
  st.comm_variant = w.options.comm;
  st.seed = in.seed;
  st.cells = w.options.cells;
  st.rank_grid = w.options.rank_grid;
  st.natoms = w.natoms();
  st.rank_atoms.resize(static_cast<std::size_t>(w.nranks()));
  util::Rng rng(in.seed);
  for (long i = 0; i < st.natoms; ++i) {
    sim::AtomState a;
    a.tag = i;
    a.pos = {rng.uniform(), rng.uniform(), rng.uniform()};
    a.vel = {rng.uniform(), rng.uniform(), rng.uniform()};
    st.rank_atoms[static_cast<std::size_t>(i % w.nranks())].push_back(a);
  }
  for (int s = 10; s <= st.step; s += 10) st.thermo.push_back({s, {}});
  const double bytes = static_cast<double>(st.natoms) * sizeof(sim::AtomState);
  rep.samples("sim.checkpoint_hash_gbps", "GB/s",
              gbps(batches(log, "layer.sim.checkpoint_hash", in.budget_s, bytes, [&] {
                const std::uint64_t h = sim::checkpoint_content_hash(st);
                escape(&h);
              })));
}

}  // namespace perfbench
