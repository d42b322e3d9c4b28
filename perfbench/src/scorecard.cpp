// scorecard: times one workload through sim::run_simulation and,
// in the traced run, measures every layer's unit cost from outside.
//
//   scorecard --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// Prints raw samples (see report.h); perfbench/run.py turns them into
// the benchmark's JSON result. The untraced run (--trace 0) measures the
// end-to-end metrics with the program's tracing off; the traced run
// (--trace 1) turns on the program's tracer for its step, stage and
// wait spans, records the benchmark's own spans around every layer call
// and writes those to --spans when the run ends. With --seconds 0 the
// untraced run makes only its reference run and three repetitions, a
// fixed amount of work whose peak RSS run.py reports.

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "obs/alloc_tracker.h"
#include "obs/critical_path.h"
#include "obs/tracer.h"
#include "report.h"
#include "sim/simulation.h"
#include "spans.h"
#include "util/timer.h"
#include "workloads.h"

namespace {

namespace sim = lmp::sim;
namespace obs = lmp::obs;
namespace util = lmp::util;
using perfbench::Report;
using perfbench::SpanLog;
using perfbench::Workload;
using perfbench::steady_ns;

/// Stamps the moment the rank-0 progress counter, which the simulation
/// stores after every step (SimOptions::progress), reaches `from`: the
/// start of one repetition's timed window, which ends when
/// run_simulation returns. The watcher polls only through set-up and the
/// warmup steps and exits once it has its stamp, so no extra thread
/// competes with the rank threads inside the timed window.
class WarmupWatch {
 public:
  explicit WarmupWatch(int from) : from_(from), thread_([this] { watch(); }) {}
  ~WarmupWatch() { stop(); }
  WarmupWatch(const WarmupWatch&) = delete;
  WarmupWatch& operator=(const WarmupWatch&) = delete;

  std::atomic<std::int64_t>* counter() { return &progress_; }

  /// Joins the watcher. Returns the steady_ns() stamp, or 0 when the run
  /// never reached `from`.
  std::int64_t stop() {
    if (thread_.joinable()) {
      done_.store(true);
      thread_.join();
    }
    return stamp_;
  }

 private:
  void watch() {
    for (;;) {
      // Read `done_` first: a stop that lands after the last step still
      // gets one final look at the counter.
      const bool last = done_.load();
      if (progress_.load(std::memory_order_relaxed) >= from_) {
        stamp_ = steady_ns();
        return;
      }
      if (last) return;
      // A 100 us edge error is under 0.03% of the shortest timed window.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  const std::int64_t from_;
  std::atomic<std::int64_t> progress_{0};
  std::atomic<bool> done_{false};
  std::int64_t stamp_ = 0;
  std::thread thread_;  // last: starts after every member it reads
};

/// Steal and total ticks, from /proc/stat, of the CPUs this process may
/// run on: the share of their time the hypervisor gave to other guests.
struct CpuTicks {
  long long steal = 0;
  long long total = 0;
};

CpuTicks read_cpu_ticks() {
  cpu_set_t set;
  CPU_ZERO(&set);
  sched_getaffinity(0, sizeof(set), &set);
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  char line[512];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    int cpu = -1;
    long long v[8] = {};
    if (std::sscanf(line, "cpu%d %lld %lld %lld %lld %lld %lld %lld %lld", &cpu, &v[0], &v[1],
                    &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) != 9 ||
        cpu < 0 || cpu >= CPU_SETSIZE || !CPU_ISSET(cpu, &set)) {
      continue;
    }
    t.steal += v[7];
    for (long long x : v) t.total += x;
  }
  std::fclose(f);
  return t;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Share of the CPUs' time the hypervisor stole between two readings.
double steal_share(const CpuTicks& a, const CpuTicks& b) {
  return b.total > a.total
             ? static_cast<double>(b.steal - a.steal) / static_cast<double>(b.total - a.total)
             : 0.0;
}

struct Timed {
  sim::JobResult result;
  double window_s = -1.0;  ///< timed window (steps after warmup, then teardown)
  double wall_s = 0.0;     ///< the whole run_simulation call
};

class Bench {
 public:
  Bench(const Workload& w, std::uint64_t seed, double seconds, Report& rep)
      : w_(w), seconds_(seconds), rep_(rep) {
    base_ = w.options;
    base_.seed = seed;
  }

  /// One checked run_simulation: a throw or a failed check is a failed
  /// operation, reported on stderr, never a crash.
  std::optional<Timed> run(const sim::SimOptions& o, int nsteps, std::uint64_t expect_hash,
                           const char* what) {
    Timed t;
    try {
      WarmupWatch watch(std::min(w_.warmup_steps, nsteps));
      sim::SimOptions opts = o;
      opts.progress = watch.counter();
      const std::int64_t t0 = steady_ns();
      t.result = sim::run_simulation(opts, nsteps);
      const std::int64_t t1 = steady_ns();
      t.wall_s = 1e-9 * static_cast<double>(t1 - t0);
      const std::int64_t from = watch.stop();
      t.window_s = nsteps == 0 ? 0.0 : from > 0 ? 1e-9 * static_cast<double>(t1 - from) : -1.0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "scorecard: %s run of %s threw: %s\n", what, w_.name.c_str(), e.what());
      rep_.op(false);
      return std::nullopt;
    }
    std::string why = perfbench::check_run(w_, o, t.result, nsteps, expect_hash);
    if (why.empty() && nsteps > 0 && t.window_s <= 0.0) why = "timed window was not observed";
    if (!why.empty()) {
      std::fprintf(stderr, "scorecard: %s run of %s failed its check: %s\n", what,
                   w_.name.c_str(), why.c_str());
      rep_.op(false);
      return std::nullopt;
    }
    rep_.op(true);
    return t;
  }

  double us_per_atom_step(const Timed& t) const {
    return 1e6 * t.window_s / (static_cast<double>(w_.timed_steps) * static_cast<double>(w_.natoms()));
  }

  /// Sets the final-state hash the timed runs must reproduce (0 when a
  /// reference run failed, which then fails every later check).
  void run_reference() {
    using perfbench::Reference;
    const int n = w_.nsteps();
    const sim::SimOptions other = w_.reference_options(base_.seed);
    const auto first = run(w_.reference == Reference::kBarrierExecutor ? other : base_, n, 0,
                           "reference");
    ref_hash_ = first ? perfbench::state_hash(first->result) : 0;
    if (!first || w_.reference != Reference::kRefVariant) return;
    const int m = w_.ref_compare_steps;
    const auto mine = run(base_, m, 0, "short reference");
    const auto ref = run(other, m, 0, "ref-variant reference");
    const double diff = mine && ref
                            ? perfbench::max_state_difference(w_, mine->result, ref->result)
                            : INFINITY;
    if (!(diff <= w_.ref_tol)) {
      std::fprintf(stderr, "scorecard: %s differs from its ref-variant run by %g (bound %g)\n",
                   w_.name.c_str(), diff, w_.ref_tol);
      ref_hash_ = 0;
    }
  }

  void end_to_end() {
    run_reference();
    const std::int64_t end = steady_ns() + static_cast<std::int64_t>(seconds_ * 1e9);
    int reps = 0;
    // Set-up and timed runs alternate, so slow phases of a shared host
    // land on both metrics alike. Each repetition carries the share of
    // the CPUs' time stolen by other guests while it ran.
    while (reps < kMinReps || steady_ns() < end) {
      const CpuTicks c0 = read_cpu_ticks();
      std::vector<double> setup_s;
      for (int i = 0; i < kSetupsPerRep; ++i) {
        if (const auto s = run(base_, 0, 0, "setup")) setup_s.push_back(s->wall_s);
      }
      const auto t = run(base_, w_.nsteps(), expected_hash(), "timed");
      const double steal = steal_share(c0, read_cpu_ticks());
      rep_.rep(steal, "setup_s", "s", setup_s);
      if (t) rep_.rep(steal, "us_per_atom_step", "us", {us_per_atom_step(*t)});
      ++reps;
    }
  }

  void traced(SpanLog& log, const std::string& spans_path) {
    {
      SpanLog::Scope s(log, "reference");
      run_reference();
    }
    const std::int64_t start = steady_ns();
    auto until = [&](double share) {
      return start + static_cast<std::int64_t>(share * seconds_ * 1e9);
    };
    traced_runs(log, until(0.7), until(0.8));
    {
      SpanLog::Scope s(log, "run_simulation.alloc_guard");
      alloc_guard_run();
    }
    layers(log);

    if (!spans_path.empty() && !log.write_json(spans_path)) {
      std::fprintf(stderr, "scorecard: could not write %s\n", spans_path.c_str());
    }
  }

 private:
  static constexpr int kMinReps = 3;
  static constexpr int kSetupsPerRep = 3;

  std::uint64_t expected_hash() const {
    // A failed reference yields a hash no run can match.
    return ref_hash_ != 0 ? ref_hash_ : 1;
  }

  /// Runs with the program's default trace mask (no alloc instants) and
  /// metrics on: step spans, stage shares, the critical path, message
  /// and fabric counts. Goes on past `end`, up to `hard_end`, until the
  /// step-time tail has kMinStepSamples samples. Each of the first
  /// kPairedRuns traced runs follows an untraced run and a 1-rank run;
  /// each ratio is the median of its per-pair ratios, so it compares
  /// runs made under the same host conditions.
  void traced_runs(SpanLog& log, std::int64_t end, std::int64_t hard_end) {
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.set_buffer_capacity(kTraceRing);
    // The strong-scaling baseline: the same atoms on one rank, `ref`,
    // barrier executor, one thread.
    sim::SimOptions one_rank = base_;
    one_rank.rank_grid = {1, 1, 1};
    one_rank.comm = "ref";
    one_rank.executor = "barrier";

    std::vector<double> overhead, scaling, step_us;
    util::StageTimer stages;
    std::map<std::string, double> cp_seconds;
    double cp_total = 0.0;
    double msgs = 0.0, bytes = 0.0, puts = 0.0, link_bytes = 0.0, steps = 0.0;
    for (int runs = 0;
         runs < 1 || ((steady_ns() < end || step_us.size() < kMinStepSamples) &&
                      steady_ns() < hard_end && runs < kMaxTracedRuns);
         ++runs) {
      double untraced_us = 0.0;
      if (runs < kPairedRuns) {
        {
          SpanLog::Scope s(log, "run_simulation.untraced");
          if (const auto t = run(base_, w_.nsteps(), expected_hash(), "untraced")) {
            untraced_us = us_per_atom_step(*t);
          }
        }
        SpanLog::Scope s(log, "run_simulation.one_rank_ref");
        const auto t = run(one_rank, w_.nsteps(), 0, "1-rank ref");
        if (t && untraced_us > 0.0) {
          scaling.push_back(us_per_atom_step(*t) / (w_.nranks() * untraced_us));
        }
      }

      tracer.reset();
      obs::set_trace_categories(obs::kDefaultTraceCats);
      obs::set_metrics_enabled(true);
      SpanLog::Scope s(log, "run_simulation.traced");
      const auto t = run(base_, w_.nsteps(), expected_hash(), "traced");
      s.close();
      obs::set_trace_categories(0);
      obs::set_metrics_enabled(false);
      if (!t) continue;
      if (untraced_us > 0.0) overhead.push_back(us_per_atom_step(*t) / untraced_us);
      if (tracer.events_dropped() > 0) {
        std::fprintf(stderr, "scorecard: trace ring dropped %llu events\n",
                     static_cast<unsigned long long>(tracer.events_dropped()));
      }
      const std::vector<obs::CollectedEvent> events = tracer.snapshot_events();
      append_step_spans(events, step_us);
      const obs::CriticalPathReport cp = obs::analyze_critical_path(events);
      for (const obs::CriticalPathRow& row : cp.rows) cp_seconds[row.name] += row.seconds;
      cp_total += cp.step_seconds_total;

      stages += t->result.total_stages();
      for (const sim::RankResult& r : t->result.ranks) {
        msgs += static_cast<double>(r.comm.border_msgs + r.comm.forward_msgs +
                                    r.comm.reverse_msgs + r.comm.scalar_msgs +
                                    r.comm.exchange_msgs);
        bytes += static_cast<double>(r.comm.bytes);
      }
      puts += static_cast<double>(t->result.fabric.puts_charged);
      link_bytes += static_cast<double>(t->result.fabric.total_bytes);
      steps += w_.nsteps();
    }
    tracer.reset();

    rep_.dist("sim.step_us", "us", step_us);
    const double total = stages.total();
    for (util::Stage st : util::all_stages()) {
      const std::string name = "sim.stage_frac." + std::string(util::stage_name(st));
      rep_.sample(name, "ratio", total > 0.0 ? stages.get(st) / total : 0.0);
    }
    for (const char* row : {"compute", "pack", "wire_transit", "imbalance", "notice_wait"}) {
      rep_.sample(std::string("sim.cp.") + row + "_frac", "ratio",
                  cp_total > 0.0 ? cp_seconds[row] / cp_total : 0.0);
    }
    if (steps > 0.0) {
      rep_.sample("comm.msgs_per_step", "count", msgs / steps);
      rep_.sample("comm.bytes_per_step", "B", bytes / steps);
      rep_.sample("tofu.puts_per_step", "count", puts / steps);
      rep_.sample("tofu.link_bytes_per_step", "B", link_bytes / steps);
    }
    msg_bytes_ = msgs > 0.0 ? bytes / msgs : 0.0;
    fabric_puts_ = puts;
    if (!overhead.empty()) rep_.sample("obs.trace_overhead_ratio", "ratio", median(overhead));
    // 1-rank time on the same atoms over (ranks x this workload's time).
    if (!scaling.empty()) rep_.sample("sim.strong_scaling_eff", "ratio", median(scaling));
  }

  /// Every rank's "step" spans after its warmup steps, in microseconds.
  void append_step_spans(const std::vector<obs::CollectedEvent>& events,
                         std::vector<double>& out) const {
    std::map<int, int> seen;  // pid -> step spans so far
    for (const obs::CollectedEvent& ce : events) {
      const obs::TraceEvent& e = ce.event;
      if (e.kind != obs::TraceEvent::kSpan || e.cat != obs::TraceCat::kSim ||
          e.name == nullptr || std::strcmp(e.name, "step") != 0 || ce.pid < 0) {
        continue;
      }
      if (seen[ce.pid]++ >= w_.warmup_steps) out.push_back(1e-3 * static_cast<double>(e.dur_ns));
    }
  }

  /// Steady-state heap traffic past the warmup, per step and per stage.
  void alloc_guard_run() {
    sim::SimOptions o = base_;
    o.alloc_guard = true;
    o.alloc_guard_warmup = w_.warmup_steps;
    const auto t = run(o, w_.nsteps(), expected_hash(), "alloc-guard");
    if (!t) return;
    const obs::AllocGuardReport& g = t->result.alloc_guard;
    const double steps = std::max(1, g.steps_checked);
    std::map<std::string, double> by_stage;
    for (util::Stage st : util::all_stages()) by_stage[std::string(util::stage_name(st))] = 0.0;
    for (const obs::AllocSlotStats& row : g.rows) {
      // "stage:<Stage>" scopes map to their stage; dispatcher waits
      // ("wait.*") happen inside Comm; anything else is Other.
      const std::string name = row.name != nullptr ? row.name : "";
      std::string stage = "Other";
      if (name.rfind("stage:", 0) == 0 && by_stage.count(name.substr(6))) {
        stage = name.substr(6);
      } else if (name.rfind("wait.", 0) == 0) {
        stage = "Comm";
      }
      by_stage[stage] += static_cast<double>(row.allocs);
    }
    rep_.sample("obs.steady_allocs_per_step", "count",
                static_cast<double>(g.post_warmup_allocs) / steps);
    for (const auto& [stage, allocs] : by_stage) {
      rep_.sample("obs.steady_allocs_per_step." + stage, "count", allocs / steps);
    }
  }

  void layers(SpanLog& log) {
    perfbench::LayerInputs in;
    in.workload = &w_;
    in.seed = base_.seed;
    in.msg_bytes = msg_bytes_;
    in.uses_fabric = fabric_puts_ > 0.0;
    in.budget_s = std::clamp(kLayerShare * seconds_, 0.05, 2.0);
    SpanLog::Scope s(log, "layers");
    perfbench::measure_md(in, log, rep_);
    perfbench::measure_pack(in, log, rep_);
    perfbench::measure_fabric(in, log, rep_);
    perfbench::measure_minimpi(in, log, rep_);
    perfbench::measure_pools(in, log, rep_);
    perfbench::measure_checkpoint_hash(in, log, rep_);
  }

  static constexpr std::size_t kTraceRing = 1 << 18;
  static constexpr int kMaxTracedRuns = 50;
  // p99 needs ten samples beyond it.
  static constexpr std::size_t kMinStepSamples = 1000;
  static constexpr int kPairedRuns = 3;
  // Each timed layer measurement gets this share of --seconds.
  static constexpr double kLayerShare = 0.02;

  const Workload& w_;
  sim::SimOptions base_;
  double seconds_;
  Report& rep_;
  std::uint64_t ref_hash_ = 0;
  double msg_bytes_ = 0.0;
  double fabric_puts_ = 0.0;
};

int usage() {
  std::fprintf(stderr,
               "usage: scorecard --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <path>]\nworkloads:");
  for (const Workload& w : perfbench::workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_path;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") workload = val;
    else if (key == "--seed") seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") seconds = std::strtod(val, nullptr);
    else if (key == "--trace") trace = std::atoi(val);
    else if (key == "--spans") spans_path = val;
    else return usage();
  }
  const Workload* w = perfbench::find_workload(workload);
  if (w == nullptr || seconds < 0.0 || (trace != 0 && trace != 1) || argc % 2 == 0) {
    return usage();
  }

  // Thread budget: a workload that needs more threads than CPUs would
  // time the scheduler, not the code.
  const int cpus = perfbench::available_cpus();
  if (w->threads() > cpus) {
    std::fprintf(stderr,
                 "scorecard: refusing to time %s: it needs %d threads (%d ranks x %d comm "
                 "threads x %d DAG workers) but only %d CPUs are available\n",
                 w->name.c_str(), w->threads(), w->nranks(), perfbench::kCommThreads,
                 w->options.executor == "async" ? w->options.executor_threads : 1, cpus);
    return 3;
  }

  Report rep;
  try {
    Bench d(*w, seed, seconds, rep);
    if (trace == 0) {
      d.end_to_end();
    } else {
      SpanLog log;
      d.traced(log, spans_path);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scorecard: %s\n", e.what());
    return 1;
  }
  rep.print(stdout);
  return 0;
}
