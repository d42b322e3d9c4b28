#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "md/config.h"
#include "sim/simulation.h"

namespace lmp::sim {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Assert two finished jobs have bitwise-identical trajectories: the
/// tag-sorted final positions and velocities of every atom, plus every
/// thermo sample. This is the acceptance bar for the async executor —
/// overlap must change timing only, never a single bit of physics.
void expect_bitwise_equal(const JobResult& a, const JobResult& b) {
  ASSERT_EQ(a.atoms.size(), b.atoms.size());
  for (std::size_t i = 0; i < a.atoms.size(); ++i) {
    ASSERT_EQ(a.atoms[i].tag, b.atoms[i].tag) << "atom " << i;
    ASSERT_EQ(bits(a.atoms[i].pos.x), bits(b.atoms[i].pos.x)) << "atom " << i;
    ASSERT_EQ(bits(a.atoms[i].pos.y), bits(b.atoms[i].pos.y)) << "atom " << i;
    ASSERT_EQ(bits(a.atoms[i].pos.z), bits(b.atoms[i].pos.z)) << "atom " << i;
    ASSERT_EQ(bits(a.atoms[i].vel.x), bits(b.atoms[i].vel.x)) << "atom " << i;
    ASSERT_EQ(bits(a.atoms[i].vel.y), bits(b.atoms[i].vel.y)) << "atom " << i;
    ASSERT_EQ(bits(a.atoms[i].vel.z), bits(b.atoms[i].vel.z)) << "atom " << i;
  }
  ASSERT_EQ(a.thermo.size(), b.thermo.size());
  for (std::size_t i = 0; i < a.thermo.size(); ++i) {
    ASSERT_EQ(a.thermo[i].step, b.thermo[i].step);
    ASSERT_EQ(bits(a.thermo[i].state.temperature),
              bits(b.thermo[i].state.temperature));
    ASSERT_EQ(bits(a.thermo[i].state.pressure),
              bits(b.thermo[i].state.pressure));
    ASSERT_EQ(bits(a.thermo[i].state.total()), bits(b.thermo[i].state.total()));
  }
}

SimOptions lj_case(const std::string& variant) {
  SimOptions o;
  o.config = md::SimConfig::lj_melt();
  o.cells = {6, 6, 6};
  o.rank_grid = {2, 2, 1};
  o.comm = variant;
  o.thermo_every = 5;
  return o;
}

SimOptions eam_case(const std::string& variant) {
  SimOptions o;
  o.config = md::SimConfig::eam_copper();
  o.cells = {4, 4, 4};
  o.rank_grid = {2, 1, 1};
  o.comm = variant;
  o.thermo_every = 5;
  return o;
}

TEST(Executor, AsyncMatchesBarrierBitwiseLjRef) {
  SimOptions o = lj_case("ref");
  const JobResult barrier = run_simulation(o, 30);
  o.executor = "async";
  const JobResult async = run_simulation(o, 30);
  expect_bitwise_equal(barrier, async);
}

TEST(Executor, AsyncMatchesBarrierBitwiseLjP2p) {
  // 6tni_p2p exposes real per-direction forward channels, so the DAG
  // genuinely overlaps waits with interior groups here.
  SimOptions o = lj_case("6tni_p2p");
  const JobResult barrier = run_simulation(o, 30);
  o.executor = "async";
  o.executor_threads = 3;
  const JobResult async = run_simulation(o, 30);
  expect_bitwise_equal(barrier, async);
}

TEST(Executor, AsyncMatchesBarrierBitwiseEamRef) {
  SimOptions o = eam_case("ref");
  const JobResult barrier = run_simulation(o, 20);
  o.executor = "async";
  const JobResult async = run_simulation(o, 20);
  expect_bitwise_equal(barrier, async);
}

TEST(Executor, AsyncMatchesBarrierBitwiseEamP2p) {
  // EAM on the p2p engine exercises the full DAG shape: per-direction
  // waits, the mid join's rho reverse-add + fp forward, and pass 1.
  SimOptions o = eam_case("6tni_p2p");
  const JobResult barrier = run_simulation(o, 20);
  o.executor = "async";
  o.executor_threads = 3;
  const JobResult async = run_simulation(o, 20);
  expect_bitwise_equal(barrier, async);
}

TEST(Executor, AsyncNewtonOffUsesRingForward) {
  // Newton-off routes the forward through the payload rings (unpack on
  // the receive side) — the other complete_forward_dir code path.
  SimOptions o = lj_case("6tni_p2p");
  o.config.newton = false;
  const JobResult barrier = run_simulation(o, 20);
  o.executor = "async";
  o.executor_threads = 3;
  const JobResult async = run_simulation(o, 20);
  expect_bitwise_equal(barrier, async);
}

TEST(Executor, AsyncWorksWithCheckpointRebuilds) {
  // Checkpoint steps force rebuilds mid-run: rebuild steps run the step
  // DAG with the forward skipped, and the DAG follows the epoch's groups.
  SimOptions o = lj_case("6tni_p2p");
  o.checkpoint_every = 7;
  const JobResult barrier = run_simulation(o, 21);
  o.executor = "async";
  const JobResult async = run_simulation(o, 21);
  expect_bitwise_equal(barrier, async);

  // Every step a rebuild: every graph run skips the forward. A wait
  // node that wrongly ran would block on a notice nobody sent and end
  // in CommTimeoutError; no failover may heal that on an eager variant.
  for (const bool newton : {true, false}) {
    SimOptions e = lj_case("6tni_p2p");
    e.config.newton = newton;
    e.config.neigh.every = 1;
    e.config.neigh.check = false;
    e.max_failovers = 0;
    const JobResult eb = run_simulation(e, 12);
    e.executor = "async";
    e.executor_threads = 3;
    const JobResult ea = run_simulation(e, 12);
    SCOPED_TRACE(newton ? "newton on" : "newton off");
    expect_bitwise_equal(eb, ea);
  }
}

TEST(Executor, OptVariantIsRunToRunReproducible) {
  // "opt" fans its reverse accumulation across 6 comm threads; the
  // staged canonical-order settle makes the add order (and hence the
  // trajectory) independent of thread timing, so two identical runs
  // must agree to the bit.
  SimOptions o = lj_case("opt");
  const JobResult first = run_simulation(o, 30);
  const JobResult second = run_simulation(o, 30);
  expect_bitwise_equal(first, second);
}

TEST(Executor, AsyncMatchesBarrierBitwiseLjOpt) {
  SimOptions o = lj_case("opt");
  const JobResult barrier = run_simulation(o, 30);
  o.executor = "async";
  o.executor_threads = 3;
  const JobResult async = run_simulation(o, 30);
  expect_bitwise_equal(barrier, async);
}

TEST(Executor, AsyncMatchesBarrierBitwiseEamOpt) {
  // EAM adds the scalar rho reverse-add to the multi-threaded reverse
  // path; same staged-settle determinism requirement as forces.
  SimOptions o = eam_case("opt");
  const JobResult barrier = run_simulation(o, 20);
  o.executor = "async";
  o.executor_threads = 3;
  const JobResult async = run_simulation(o, 20);
  expect_bitwise_equal(barrier, async);
}

TEST(Executor, SingleWorkerAsyncStillIdentical) {
  // executor_threads 1 drains the DAG inline — degenerate but legal.
  SimOptions o = lj_case("6tni_p2p");
  o.executor = "async";
  o.executor_threads = 1;
  const JobResult one = run_simulation(o, 15);
  o.executor_threads = 4;
  const JobResult four = run_simulation(o, 15);
  expect_bitwise_equal(one, four);
}

/// 64-bit FNV-1a over a finished job: the tag-sorted final positions and
/// velocities, then each thermo sample's step and state bits.
std::uint64_t trajectory_hash(const JobResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t b) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (b >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const AtomState& a : r.atoms) {
    mix(static_cast<std::uint64_t>(a.tag));
    for (const double v : {a.pos.x, a.pos.y, a.pos.z, a.vel.x, a.vel.y, a.vel.z}) {
      mix(bits(v));
    }
  }
  for (const ThermoSample& t : r.thermo) {
    mix(static_cast<std::uint64_t>(t.step));
    mix(bits(t.state.temperature));
    mix(bits(t.state.pressure));
    mix(bits(t.state.total()));
  }
  return h;
}

TEST(Executor, TrajectoryBitsMatchRecordedReference) {
  // Barrier and async share one step engine, so comparing them with
  // each other cannot catch a change both make: pin both to hashes
  // recorded from the earlier, separately implemented barrier engine.
#if !(defined(__x86_64__) && defined(__GLIBC__))
  GTEST_SKIP() << "reference bits were recorded on x86-64 with glibc's libm";
#endif
  struct Case {
    const char* name;
    SimOptions opt;
    std::uint64_t hash;
  };
  // 20 steps with checkpoints every 7: forced rebuilds at steps 7 and 14
  // and, for LJ, the neigh-every rebuild at step 20.
  SimOptions lj_on = lj_case("6tni_p2p");
  lj_on.checkpoint_every = 7;
  SimOptions lj_off = lj_on;
  lj_off.config.newton = false;
  SimOptions eam = eam_case("ref");
  eam.checkpoint_every = 7;
  const Case cases[] = {
      {"lj 6tni_p2p newton on", lj_on, 0xea974bd1a4af9965ULL},
      {"lj 6tni_p2p newton off", lj_off, 0xc63d6c47007dce61ULL},
      {"eam ref", eam, 0x6feda0f019a96291ULL},
  };
  for (const Case& c : cases) {
    for (const char* exec : {"barrier", "async"}) {
      SimOptions o = c.opt;
      o.executor = exec;
      o.executor_threads = 3;
      const std::uint64_t h = trajectory_hash(run_simulation(o, 20));
      EXPECT_EQ(h, c.hash) << std::hex << c.name << " " << exec << " hash 0x"
                           << h;
    }
  }
}

TEST(Executor, UnknownExecutorNameThrows) {
  SimOptions o = lj_case("ref");
  o.executor = "speculative";
  EXPECT_THROW(run_simulation(o, 1), std::runtime_error);
  o.executor = "async";
  o.executor_threads = 0;
  EXPECT_THROW(run_simulation(o, 1), std::runtime_error);
}

}  // namespace
}  // namespace lmp::sim
