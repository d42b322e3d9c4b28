// Observability subsystem tests: tracer ring/export, metrics registry,
// JSON writer, run report consistency, and the two guarantees the
// instrumentation must keep — physics untouched and the disabled path
// close to free.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/tracer.h"
#include "sim/simulation.h"

namespace lmp::obs {
namespace {

/// Restore the global tracer/metrics state no matter how a test exits,
/// so tests in this binary can't leak tracing into each other.
class TracerSandbox {
 public:
  TracerSandbox() {
    Tracer::instance().reset();
    set_trace_categories(0);
    set_metrics_enabled(false);
  }
  ~TracerSandbox() {
    set_trace_categories(0);
    set_metrics_enabled(false);
    Tracer::instance().set_buffer_capacity(16384);
    Tracer::instance().reset();
  }
};

std::string g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

TEST(Tracer, ExportsSpansInstantsCountersWithIdentity) {
  if (!trace_compiled_in()) GTEST_SKIP() << "built with LMP_TRACE=OFF";
  const TracerSandbox guard;
  // Not kAllTraceCats: that now includes kAlloc, which would turn this
  // test's own heap traffic (export's string building) into events and
  // break the exact counts below.
  set_trace_categories(static_cast<std::uint32_t>(TraceCat::kSim) |
                       static_cast<std::uint32_t>(TraceCat::kComm) |
                       static_cast<std::uint32_t>(TraceCat::kTofu));
  Tracer::instance().set_thread_identity(3, 7, "worker");
  Tracer::instance().record_span(TraceCat::kSim, "obs.test.span", 1000, 2000);
  Tracer::instance().record_instant(TraceCat::kComm, "obs.test.instant");
  Tracer::instance().record_counter(TraceCat::kTofu, "obs.test.counter", 42);
  const std::string json = Tracer::instance().export_chrome_json();

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("obs.test.span"), std::string::npos);
  EXPECT_NE(json.find("obs.test.instant"), std::string::npos);
  EXPECT_NE(json.find("obs.test.counter"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":7"), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("worker"), std::string::npos);
  EXPECT_EQ(Tracer::instance().events_recorded(), 3u);
}

TEST(Tracer, RuntimeGatePerCategory) {
  if (!trace_compiled_in()) GTEST_SKIP() << "built with LMP_TRACE=OFF";
  const TracerSandbox guard;
  { const TraceSpan off(TraceCat::kSim, "obs.test.off"); }
  EXPECT_EQ(Tracer::instance().events_recorded(), 0u);

  set_trace_categories(static_cast<std::uint32_t>(TraceCat::kComm));
  { const TraceSpan still_off(TraceCat::kSim, "obs.test.sim"); }
  EXPECT_EQ(Tracer::instance().events_recorded(), 0u);
  { const TraceSpan on(TraceCat::kComm, "obs.test.comm"); }
  EXPECT_EQ(Tracer::instance().events_recorded(), 1u);
}

TEST(Tracer, RingOverwritesOldestKeepsNewest) {
  if (!trace_compiled_in()) GTEST_SKIP() << "built with LMP_TRACE=OFF";
  const TracerSandbox guard;
  Tracer::instance().set_buffer_capacity(8);
  // kSim only: kAlloc would add instants for the test's own heap use.
  set_trace_categories(static_cast<std::uint32_t>(TraceCat::kSim));
  for (int i = 0; i < 12; ++i) {
    Tracer::instance().record_instant(TraceCat::kSim, "obs.test.old");
  }
  for (int i = 0; i < 8; ++i) {
    Tracer::instance().record_instant(TraceCat::kSim, "obs.test.new");
  }
  EXPECT_EQ(Tracer::instance().events_recorded(), 20u);
  EXPECT_EQ(Tracer::instance().events_dropped(), 12u);
  const std::string json = Tracer::instance().export_chrome_json();
  EXPECT_EQ(json.find("obs.test.old"), std::string::npos);
  EXPECT_NE(json.find("obs.test.new"), std::string::npos);
}

TEST(Tracer, ExportIsSortedByTimestampRegardlessOfRecordOrder) {
  if (!trace_compiled_in()) GTEST_SKIP() << "built with LMP_TRACE=OFF";
  const TracerSandbox guard;
  // kSim only: kAlloc would add instants for the test's own heap use.
  set_trace_categories(static_cast<std::uint32_t>(TraceCat::kSim));
  // Record out of timestamp order — export must still be time-sorted so
  // equal-seed runs produce byte-diffable traces.
  Tracer::instance().record_span(TraceCat::kSim, "obs.test.late", 5000, 10);
  Tracer::instance().record_span(TraceCat::kSim, "obs.test.early", 1000, 10);
  const std::string json = Tracer::instance().export_chrome_json();
  const std::size_t early = json.find("obs.test.early");
  const std::size_t late = json.find("obs.test.late");
  ASSERT_NE(early, std::string::npos);
  ASSERT_NE(late, std::string::npos);
  EXPECT_LT(early, late);

  const auto events = Tracer::instance().snapshot_events();
  ASSERT_EQ(events.size(), 2u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].event.ts_ns, events[i].event.ts_ns);
  }
}

TEST(Tracer, FlowPhasesExportWithSharedId) {
  if (!trace_compiled_in()) GTEST_SKIP() << "built with LMP_TRACE=OFF";
  const TracerSandbox guard;
  set_trace_categories(kAllTraceCats);
  const std::uint64_t id = (7ull << 32) | 42;
  Tracer::instance().record_flow(TraceCat::kComm, kMsgFlowName, id,
                                 TraceEvent::kFlowStart);
  Tracer::instance().record_flow(TraceCat::kComm, kMsgFlowName, id,
                                 TraceEvent::kFlowStep);
  Tracer::instance().record_flow(TraceCat::kComm, kMsgFlowName, id,
                                 TraceEvent::kFlowFinish);
  const std::string json = Tracer::instance().export_chrome_json();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  // The finish phase must carry bp:e (bind to enclosing slice) and every
  // phase the same hex id — Perfetto joins s/t/f on (id, cat, name).
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  std::size_t id_hits = 0;
  for (std::size_t p = json.find("\"id\":\"0x70000002a\"");
       p != std::string::npos;
       p = json.find("\"id\":\"0x70000002a\"", p + 1)) {
    ++id_hits;
  }
  EXPECT_EQ(id_hits, 3u);
}

TEST(CriticalPath, AttributesStepWindowBuckets) {
  // Hand-built event stream, one rank, one 1000 ns step:
  //   pack.border 100..200 (100 ns), wait.forward 300..700 (400 ns),
  //   a flow started at 350 finishing at 500 (150 ns on the wire).
  // Expected: pack 100, notice_wait 400, wire 150, imbalance 250,
  // compute 1000 - 100 - 400 = 500.
  const auto span = [](int pid, TraceCat cat, const char* name,
                       std::int64_t ts, std::int64_t dur) {
    CollectedEvent e;
    e.pid = pid;
    e.event = TraceEvent{ts, dur, name, cat, 0, TraceEvent::kSpan};
    return e;
  };
  const auto flow = [](int pid, std::int64_t ts, TraceEvent::Kind k) {
    CollectedEvent e;
    e.pid = pid;
    e.event = TraceEvent{ts, 0, kMsgFlowName, TraceCat::kComm, 99, k};
    return e;
  };
  std::vector<CollectedEvent> events = {
      span(0, TraceCat::kSim, "step", 0, 1000),
      span(0, TraceCat::kComm, "pack.border", 100, 100),
      flow(1, 350, TraceEvent::kFlowStart),
      span(0, TraceCat::kComm, "wait.forward", 300, 400),
      flow(0, 500, TraceEvent::kFlowFinish),
  };
  // Spans end-attribute, so wait.forward (ends 700) sorting after the
  // flow finish is irrelevant; keep snapshot order (ts, pid, tid).
  std::sort(events.begin(), events.end(),
            [](const CollectedEvent& a, const CollectedEvent& b) {
              return std::tie(a.event.ts_ns, a.pid, a.tid) <
                     std::tie(b.event.ts_ns, b.pid, b.tid);
            });
  const CriticalPathReport rep = analyze_critical_path(events);
  ASSERT_FALSE(rep.empty());
  EXPECT_EQ(rep.nranks, 1);
  EXPECT_EQ(rep.nsteps, 1);
  EXPECT_DOUBLE_EQ(rep.step_seconds_total, 1000e-9);
  ASSERT_EQ(rep.rows.size(), 5u);
  const auto row = [&](const std::string& name) {
    for (const CriticalPathRow& r : rep.rows) {
      if (r.name == name) return r.seconds;
    }
    ADD_FAILURE() << "missing row " << name;
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(row("compute"), 500e-9);
  EXPECT_DOUBLE_EQ(row("pack"), 100e-9);
  EXPECT_DOUBLE_EQ(row("wire_transit"), 150e-9);
  EXPECT_DOUBLE_EQ(row("imbalance"), 250e-9);
  EXPECT_DOUBLE_EQ(row("notice_wait"), 400e-9);
  // The four disjoint buckets cover the whole step.
  EXPECT_DOUBLE_EQ(row("compute") + row("pack") + row("wire_transit") +
                       row("imbalance"),
                   1000e-9);

  EXPECT_TRUE(analyze_critical_path({}).empty());
  EXPECT_EQ(format_critical_path_table(analyze_critical_path({})), "");
}

TEST(Histogram, SingleSampleIsEveryQuantile) {
  Histogram h;
  h.record(1000);
  const Histogram::Summary s = h.summary();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 1000.0);
  EXPECT_EQ(s.min, 1000u);
  EXPECT_EQ(s.max, 1000u);
  // Quantiles clamp to the observed extremes, so a single sample answers
  // every quantile exactly despite power-of-two bucket resolution.
  EXPECT_DOUBLE_EQ(s.p50, 1000.0);
  EXPECT_DOUBLE_EQ(s.p99, 1000.0);
}

TEST(Histogram, QuantilesAreBucketResolutionEstimates) {
  Histogram h;
  for (std::uint64_t x = 1; x <= 1000; ++x) h.record(x);
  const Histogram::Summary s = h.summary();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_NEAR(s.mean, 500.5, 1e-9);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 1000u);
  // Power-of-two buckets: the answer is the true quantile's bucket upper
  // edge, so it lies within [q, 2q) and never outside [min, max].
  EXPECT_GE(s.p50, 500.0);
  EXPECT_LE(s.p50, 1000.0);
  EXPECT_GE(s.p95, 950.0);
  EXPECT_LE(s.p95, 1000.0);
  EXPECT_GE(s.p99, s.p95);
}

TEST(Histogram, BucketOfEdges) {
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of(~0ull), Histogram::kBuckets - 1);
}

TEST(MetricsRegistry, KindClashThrows) {
  auto& reg = MetricsRegistry::instance();
  reg.counter("obs.test.kind_clash");
  EXPECT_THROW(reg.histogram("obs.test.kind_clash"), std::logic_error);
  EXPECT_THROW(reg.gauge("obs.test.kind_clash"), std::logic_error);
}

TEST(MetricsRegistry, ResetValuesKeepsReferencesStable) {
  auto& reg = MetricsRegistry::instance();
  Counter& c = reg.counter("obs.test.stable");
  c.add(5);
  EXPECT_EQ(c.value(), 5u);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);  // zeroed in place, not replaced
  EXPECT_EQ(&reg.counter("obs.test.stable"), &c);
  c.add(1);
  EXPECT_EQ(c.value(), 1u);
}

TEST(MetricsRegistry, GaugeTracksHighWater) {
  Gauge g;
  g.set(10);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max(), 10);
}

TEST(JsonWriter, NestingCommasAndEscapes) {
  JsonWriter w;
  w.begin_object();
  w.kv("s", std::string("a\"b\\c\nd"));
  w.key("arr").begin_array().value(1).value(2.5).value(true).end_array();
  w.key("nested").begin_object().kv("k", std::int64_t{-3}).end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\u000ad\","
            "\"arr\":[1,2.5,true],"
            "\"nested\":{\"k\":-3}}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.value(-std::numeric_limits<double>::infinity());
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null,null]");
}

sim::SimOptions tiny_lj(const std::string& comm) {
  sim::SimOptions o;
  o.config = md::SimConfig::lj_melt();
  o.cells = {4, 4, 4};
  o.rank_grid = {2, 1, 1};
  o.comm = comm;
  o.thermo_every = 10;
  return o;
}

TEST(RunReport, BarrierBooksForwardExchangeToComm) {
  // The barrier executor runs the step DAG serially and books each node
  // to its stage: every forward pack and notice wait (the task.fwd and
  // task.wait nodes' comm spans) must sit inside a stage:Comm span on
  // its thread, never inside stage:Pair. Structural, so no timing.
  if (!trace_compiled_in()) GTEST_SKIP() << "built with LMP_TRACE=OFF";
  const TracerSandbox guard;
  set_trace_categories(static_cast<std::uint32_t>(TraceCat::kSim) |
                       static_cast<std::uint32_t>(TraceCat::kComm));
  (void)sim::run_simulation(tiny_lj("6tni_p2p"), 12);
  ASSERT_EQ(Tracer::instance().events_dropped(), 0u);
  const std::vector<CollectedEvent> events = Tracer::instance().snapshot_events();

  // Name of the stage span enclosing `inner` on its thread ("" if none).
  const auto stage_of = [&](const CollectedEvent& inner) {
    const TraceEvent& in = inner.event;
    for (const CollectedEvent& ce : events) {
      const TraceEvent& e = ce.event;
      if (ce.pid != inner.pid || ce.tid != inner.tid ||
          e.kind != TraceEvent::kSpan || e.name == nullptr ||
          std::string(e.name).rfind("stage:", 0) != 0) {
        continue;
      }
      if (e.ts_ns <= in.ts_ns && in.ts_ns + in.dur_ns <= e.ts_ns + e.dur_ns) {
        return std::string(e.name);
      }
    }
    return std::string();
  };
  int forward_spans = 0;
  for (const CollectedEvent& ce : events) {
    const TraceEvent& e = ce.event;
    if (ce.pid < 0 || e.kind != TraceEvent::kSpan || e.name == nullptr) continue;
    const std::string name = e.name;
    if (name == "pack.forward" || name == "wait.forward") {
      ++forward_spans;
      EXPECT_EQ(stage_of(ce), "stage:Comm") << name << " on rank " << ce.pid;
    }
  }
  EXPECT_GT(forward_spans, 0);
}

TEST(RunReport, StagesMatchTimerAndSerializeExactly) {
  const TracerSandbox guard;
  const sim::SimOptions o = tiny_lj("6tni_p2p");
  const sim::JobResult r = sim::run_simulation(o, 20);
  const RunReport rep = sim::build_run_report(o, 20, r);

  const util::StageTimer stages = r.total_stages();
  const double total = stages.total();
  ASSERT_EQ(rep.stages.size(), util::all_stages().size());
  EXPECT_DOUBLE_EQ(rep.stage_total_seconds, total);
  double pct_sum = 0.0;
  std::size_t i = 0;
  for (const auto stage : util::all_stages()) {
    EXPECT_EQ(rep.stages[i].name, util::stage_name(stage));
    // The report must carry the very numbers the printed table uses —
    // same StageTimer, same single-total denominator.
    EXPECT_DOUBLE_EQ(rep.stages[i].seconds, stages.get(stage));
    EXPECT_DOUBLE_EQ(rep.stages[i].percent, stages.percent(stage, total));
    pct_sum += rep.stages[i].percent;
    ++i;
  }
  EXPECT_NEAR(pct_sum, 100.0, 1e-9);

  // %.17g round-trips doubles exactly, so the serialized stage seconds
  // are bit-identical to the table's inputs (well under the 1e-9 bar).
  const std::string json = rep.to_json();
  EXPECT_NE(json.find(g17(stages.get(util::Stage::kPair))),
            std::string::npos);
  EXPECT_NE(json.find(g17(total)), std::string::npos);
  EXPECT_NE(json.find("\"schema\":\"lmp-run-report\""), std::string::npos);
  EXPECT_NE(json.find("\"version\":4"), std::string::npos);
  // v2/v3/v4 sections serialize even when empty (metrics were off here),
  // so downstream parsers can rely on the keys existing.
  EXPECT_NE(json.find("\"link_utilization\""), std::string::npos);
  EXPECT_NE(json.find("\"critical_path\""), std::string::npos);
  EXPECT_NE(json.find("\"integrity\""), std::string::npos);
  EXPECT_NE(json.find("\"memory\""), std::string::npos);
  EXPECT_EQ(rep.nranks, 2);
  EXPECT_EQ(rep.natoms, r.natoms);
  EXPECT_EQ(rep.comm_final, r.final_comm);
}

TEST(RunReport, HealthAndIntegritySectionsPinned) {
  // A hand-made job result with every health counter nonzero, two
  // escalations appended out of step order (a later failover can fail at
  // an earlier step after its rollback) and one healed corruption. The
  // report and the table must render the record as it stands: same
  // bytes, events in append order.
  sim::JobResult r;
  r.health.nacks_sent = 1;
  r.health.retransmits_served = 2;
  r.health.duplicates_dropped = 3;
  r.health.crc_rejects = 4;
  r.health.notices_dropped = 5;
  r.health.notices_delayed = 6;
  r.health.notices_duplicated = 7;
  r.health.payloads_corrupted = 8;
  r.health.tni_drops = 9;
  r.health.retransmit_puts = 10;
  r.health.unreachable_puts = 11;
  r.health.fabric_puts = 12;
  r.health.tnis_in_use = 5;
  r.health.tnis_down = 1;
  r.health.checkpoints_written = 13;
  r.health.checkpoint_io_seconds = 0.25;
  r.health.escalations.push_back(
      {80, 50, "opt", "6tni_p2p", "rank 1: put timed out"});
  r.health.escalations.push_back(
      {60, 50, "6tni_p2p", "4tni_p2p", "health threshold: crc_rejects 4 > 3"});
  r.health.integrity_checks = 14;
  r.health.integrity_detections = 1;
  r.health.integrity_rollbacks = 1;
  r.health.mem_flips_injected = 2;
  r.health.integrity_events.push_back(
      {30, 20, "rank 0: integrity: velocity not finite", "transient"});

  const std::string json =
      sim::build_run_report(tiny_lj("ref"), 100, r).to_json();
  const std::size_t from = json.find("\"health\":");
  const std::size_t to = json.find(",\"link_utilization\":");
  ASSERT_NE(from, std::string::npos);
  ASSERT_NE(to, std::string::npos);
  EXPECT_EQ(json.substr(from, to - from),
            "\"health\":{\"nacks_sent\":1,\"retransmits_served\":2,"
            "\"duplicates_dropped\":3,\"crc_rejects\":4,\"notices_dropped\":5,"
            "\"notices_delayed\":6,\"notices_duplicated\":7,"
            "\"payloads_corrupted\":8,\"tni_drops\":9,\"retransmit_puts\":10,"
            "\"unreachable_puts\":11,\"fabric_puts\":12,\"tnis_in_use\":5,"
            "\"tnis_down\":1,\"checkpoints_written\":13,"
            "\"checkpoint_io_seconds\":0.25,\"escalations\":["
            "{\"fail_step\":80,\"resume_step\":50,\"from\":\"opt\","
            "\"to\":\"6tni_p2p\",\"reason\":\"rank 1: put timed out\"},"
            "{\"fail_step\":60,\"resume_step\":50,\"from\":\"6tni_p2p\","
            "\"to\":\"4tni_p2p\","
            "\"reason\":\"health threshold: crc_rejects 4 > 3\"}]},"
            "\"integrity\":{\"checks\":14,\"detections\":1,\"rollbacks\":1,"
            "\"mem_flips_injected\":2,\"events\":["
            "{\"detect_step\":30,\"resume_step\":20,\"verdict\":\"transient\","
            "\"reason\":\"rank 0: integrity: velocity not finite\"}]}");

  EXPECT_EQ(format_health_table(r.health),
            "| comm health          | count |\n"
            "|----------------------|-------|\n"
            "| nacks_sent           |     1 |\n"
            "| retransmits_served   |     2 |\n"
            "| duplicates_dropped   |     3 |\n"
            "| crc_rejects          |     4 |\n"
            "| notices_dropped      |     5 |\n"
            "| notices_delayed      |     6 |\n"
            "| notices_duplicated   |     7 |\n"
            "| payloads_corrupted   |     8 |\n"
            "| tni_drops            |     9 |\n"
            "| retransmit_puts      |    10 |\n"
            "| unreachable_puts     |    11 |\n"
            "| fabric_puts          |    12 |\n"
            "| tnis_in_use          |     5 |\n"
            "| tnis_down            |     1 |\n"
            "| checkpoints_written  |    13 |\n"
            "| checkpoint_io_s      | 0.250 |\n"
            "| escalations          |     2 |\n"
            "| integrity_checks     |    14 |\n"
            "| integrity_detections |     1 |\n"
            "| integrity_rollbacks  |     1 |\n"
            "| mem_flips_injected   |     2 |\n"
            "escalation at step 80: opt -> 6tni_p2p (resumed from step 50; "
            "rank 1: put timed out)\n"
            "escalation at step 60: 6tni_p2p -> 4tni_p2p (resumed from step 50; "
            "health threshold: crc_rejects 4 > 3)\n"
            "integrity rollback at step 30: resumed from step 20 "
            "(verdict=transient; rank 0: integrity: velocity not finite)\n");
}

EscalationEvent esc(int fail_step, const char* from, const char* to,
                    int resume_step = 0) {
  EscalationEvent e;
  e.fail_step = fail_step;
  e.resume_step = resume_step;
  e.from_variant = from;
  e.to_variant = to;
  return e;
}

TEST(MergeEscalations, SortsByFailStep) {
  std::vector<EscalationEvent> into{esc(50, "opt", "6tni_p2p")};
  merge_escalations(into, {esc(10, "6tni_p2p", "p2p")});
  ASSERT_EQ(into.size(), 2u);
  EXPECT_EQ(into[0].fail_step, 10);
  EXPECT_EQ(into[1].fail_step, 50);
}

TEST(MergeEscalations, DedupesIdenticalTransitions) {
  // Summing N per-rank reports replicates each job-level escalation N
  // times; the merged report must keep one copy.
  std::vector<EscalationEvent> into{esc(30, "opt", "6tni_p2p", 20)};
  merge_escalations(into, {esc(30, "opt", "6tni_p2p", 20)});
  merge_escalations(into, {esc(30, "opt", "6tni_p2p", 20)});
  ASSERT_EQ(into.size(), 1u);
  EXPECT_EQ(into[0].from_variant, "opt");
  EXPECT_EQ(into[0].to_variant, "6tni_p2p");
}

TEST(MergeEscalations, KeepsDistinctTransitionsAtSameStep) {
  std::vector<EscalationEvent> into{esc(30, "opt", "6tni_p2p")};
  merge_escalations(into, {esc(30, "6tni_p2p", "p2p")});
  EXPECT_EQ(into.size(), 2u);
}

TEST(MergeEscalations, HealthReportSumMergesEscalations) {
  CommHealthReport a;
  a.escalations = {esc(40, "opt", "6tni_p2p")};
  CommHealthReport b;
  b.escalations = {esc(40, "opt", "6tni_p2p"), esc(10, "x", "y")};
  a += b;
  ASSERT_EQ(a.escalations.size(), 2u);
  EXPECT_EQ(a.escalations[0].fail_step, 10);
  EXPECT_EQ(a.escalations[1].fail_step, 40);
}

TEST(BenchRecord, SerializesLabelsAndMetrics) {
  BenchRecord rec;
  rec.name = "obs_test";
  rec.labels = {{"nodes", "8"}};
  rec.metrics = {{"total_s", 1.5}};
  const std::string json = rec.to_json();
  EXPECT_NE(json.find("\"schema\":\"lmp-bench-record\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test\""), std::string::npos);
  EXPECT_NE(json.find("\"nodes\":\"8\""), std::string::npos);
  EXPECT_NE(json.find("\"total_s\":1.5"), std::string::npos);
  // The registry snapshot must live under its own key: a second
  // "metrics" key in the same object would shadow the record's own
  // numbers in every JSON parser.
  EXPECT_NE(json.find("\"registry\""), std::string::npos);
  std::size_t metrics_keys = 0;
  for (std::size_t p = json.find("\"metrics\":"); p != std::string::npos;
       p = json.find("\"metrics\":", p + 1)) {
    ++metrics_keys;
  }
  EXPECT_EQ(metrics_keys, 1u);
}

TEST(Overhead, TracingDoesNotPerturbPhysics) {
  // The acceptance bar: with instrumentation compiled in but tracing
  // runtime-disabled (and even fully enabled), trajectories must be
  // bitwise identical — observability reads the simulation, never
  // steers it. 6tni_p2p is the deterministic variant; "opt" reorders
  // reductions run-to-run and cannot be compared bitwise.
  sim::JobResult base;
  {
    const TracerSandbox guard;  // everything off
    base = sim::run_simulation(tiny_lj("6tni_p2p"), 20);
  }
  sim::JobResult traced;
  {
    const TracerSandbox guard;
    set_trace_categories(kAllTraceCats);
    set_metrics_enabled(true);
    traced = sim::run_simulation(tiny_lj("6tni_p2p"), 20);
  }
  ASSERT_EQ(base.atoms.size(), traced.atoms.size());
  for (std::size_t i = 0; i < base.atoms.size(); ++i) {
    ASSERT_EQ(base.atoms[i].tag, traced.atoms[i].tag);
    EXPECT_EQ(base.atoms[i].pos.x, traced.atoms[i].pos.x);
    EXPECT_EQ(base.atoms[i].pos.y, traced.atoms[i].pos.y);
    EXPECT_EQ(base.atoms[i].pos.z, traced.atoms[i].pos.z);
    EXPECT_EQ(base.atoms[i].vel.x, traced.atoms[i].vel.x);
    EXPECT_EQ(base.atoms[i].vel.y, traced.atoms[i].vel.y);
    EXPECT_EQ(base.atoms[i].vel.z, traced.atoms[i].vel.z);
  }
  ASSERT_EQ(base.thermo.size(), traced.thermo.size());
  for (std::size_t i = 0; i < base.thermo.size(); ++i) {
    EXPECT_EQ(base.thermo[i].state.total(), traced.thermo[i].state.total());
    EXPECT_EQ(base.thermo[i].state.pressure, traced.thermo[i].state.pressure);
  }
}

TEST(Overhead, DisabledGateIsNearFree) {
  // Perf guard for the clean path: a disabled instrumentation site is
  // one relaxed atomic load and a branch. This is a warn-first guard —
  // the host may be oversubscribed, so only an absurd per-site cost
  // (>= 2 us, ~three orders of magnitude over budget) fails the test.
  const TracerSandbox guard;  // gates off
  constexpr int kIters = 200000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    LMP_TRACE_SPAN(TraceCat::kSim, "obs.test.disabled");
    LMP_TRACE_INSTANT(TraceCat::kComm, "obs.test.disabled");
    if (metrics_enabled()) {
      MetricsRegistry::instance().counter("obs.test.never").add();
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double ns_per_site =
      std::chrono::duration<double, std::nano>(t1 - t0).count() /
      (3.0 * kIters);
  if (ns_per_site > 50.0) {
    std::printf("WARNING: disabled trace site costs %.1f ns (budget 50 ns); "
                "non-fatal, likely host contention\n", ns_per_site);
  }
  RecordProperty("disabled_site_ns", static_cast<int>(ns_per_site));
  EXPECT_LT(ns_per_site, 2000.0);
}

}  // namespace
}  // namespace lmp::obs
