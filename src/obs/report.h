#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/alloc_tracker.h"

namespace lmp::obs {

/// Minimal streaming JSON writer (objects, arrays, scalar values) — the
/// one home of JSON syntax for run reports, bench records, and anything
/// else that must be machine-readable without external dependencies.
/// Doubles are printed with %.17g so every value round-trips exactly.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(const std::string& k);
  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v);
  JsonWriter& value(bool v);

  /// key + scalar in one call.
  template <typename T>
  JsonWriter& kv(const std::string& k, const T& v) {
    key(k);
    return value(v);
  }

  const std::string& str() const { return out_; }

 private:
  void comma();
  void escape(const std::string& s);

  std::string out_;
  std::vector<bool> first_in_scope_{true};
  bool after_key_ = false;
};

/// Write `text` to `path` (truncating); false on any I/O failure.
bool write_text_file(const std::string& path, const std::string& text);

// --- run-health record -------------------------------------------------

/// One comm-variant escalation: the health monitor (or a hard comm
/// error) retired `from_variant` at `fail_step`, the run rolled back to
/// the checkpoint at `resume_step`, and continued under `to_variant`.
/// `reason` carries the trigger — the typed error text or the exceeded
/// threshold, including the counters that tripped it.
struct EscalationEvent {
  int fail_step = 0;
  int resume_step = 0;
  std::string from_variant;
  std::string to_variant;
  std::string reason;
};

/// Merge `from` into `into`: the union is sorted by fail_step (stable,
/// so same-step events keep their relative order) and events identical
/// in (fail_step, from_variant, to_variant) collapse to the first one.
/// Summing per-rank health reports would otherwise replicate each
/// job-level escalation once per rank and interleave them out of order.
void merge_escalations(std::vector<EscalationEvent>& into,
                       const std::vector<EscalationEvent>& from);

/// One silent-corruption recovery episode: an integrity guard tripped at
/// `detect_step`, the run rolled back to the checkpoint at `resume_step`
/// and recomputed. `verdict` is "transient" for a healed flip (the
/// recompute passed the step clean); a persistent fault never produces
/// an event — it terminates the run with sim::IntegrityError instead.
struct IntegrityEvent {
  int detect_step = 0;
  int resume_step = 0;
  std::string reason;
  std::string verdict;
};

/// Same dedupe-and-sort rationale as merge_escalations, keyed on
/// (detect_step, resume_step, verdict).
void merge_integrity_events(std::vector<IntegrityEvent>& into,
                            const std::vector<IntegrityEvent>& from);

/// End-of-run communication health summary: what the reliability layer
/// and the fault injector saw. All zeros on a clean run — the acceptance
/// bar for "no overhead on the clean path". The run report's "health"
/// and "integrity" sections serialize this record as it stands.
struct CommHealthReport {
  // Receiver/sender protocol activity (comm layer).
  std::uint64_t nacks_sent = 0;           ///< retransmit requests issued
  std::uint64_t retransmits_served = 0;   ///< pending sends replayed
  std::uint64_t duplicates_dropped = 0;   ///< stale/dup notices filtered
  std::uint64_t crc_rejects = 0;          ///< checksum mismatches detected
  // Fabric-side injected faults (fault injector view).
  std::uint64_t notices_dropped = 0;
  std::uint64_t notices_delayed = 0;
  std::uint64_t notices_duplicated = 0;
  std::uint64_t payloads_corrupted = 0;
  std::uint64_t tni_drops = 0;            ///< puts swallowed by a dead TNI
  std::uint64_t retransmit_puts = 0;      ///< fabric-level replay puts
  std::uint64_t unreachable_puts = 0;     ///< puts refused on severed routes
  std::uint64_t fabric_puts = 0;          ///< total puts the fabric carried
  // Degradation state.
  int tnis_in_use = 0;
  int tnis_down = 0;
  // Self-healing runtime (checkpoint/restart + failover ladder).
  std::uint64_t checkpoints_written = 0;  ///< checkpoint emissions this run
  double checkpoint_io_seconds = 0.0;     ///< wall time in checkpoint file I/O
  std::vector<EscalationEvent> escalations;  ///< comm-variant failovers, in order
  // Silent-corruption guards (sim/integrity).
  std::uint64_t integrity_checks = 0;      ///< guard evaluations run
  std::uint64_t integrity_detections = 0;  ///< guard verdicts that tripped
  std::uint64_t integrity_rollbacks = 0;   ///< rollback+recompute launched
  std::uint64_t mem_flips_injected = 0;    ///< bit flips the chaos plan landed
  std::vector<IntegrityEvent> integrity_events;  ///< recoveries, in order

  /// Counters sum, degradation gauges take the max, and the event lists
  /// go through the sort-and-dedupe merges above.
  CommHealthReport& operator+=(const CommHealthReport& o);

  /// True when nothing abnormal happened (degradation state, checkpoint
  /// activity, and guard evaluations ignored — running guards is normal;
  /// a guard *detection* or an injected flip is not).
  bool clean() const {
    return nacks_sent == 0 && retransmits_served == 0 &&
           duplicates_dropped == 0 && crc_rejects == 0 &&
           notices_dropped == 0 && notices_delayed == 0 &&
           notices_duplicated == 0 && payloads_corrupted == 0 &&
           tni_drops == 0 && retransmit_puts == 0 && unreachable_puts == 0 &&
           escalations.empty() && integrity_detections == 0 &&
           integrity_rollbacks == 0 && mem_flips_injected == 0 &&
           integrity_events.empty();
  }
};

// --- end-of-run tables --------------------------------------------------

/// Render the health report with the standard table layout (one counter
/// per row) for end-of-run printing.
std::string format_health_table(const CommHealthReport& h);

/// Render the latency histograms the metrics registry collected this run
/// (put latency per TNI, notice waits, pool dispatch/run, ...) as a
/// table in microseconds, three decimals — followed, when the alloc
/// tracker saw traffic, by the per-scope allocation table (allocs /
/// frees / bytes per attribution scope). Empty string when no histogram
/// recorded anything and no allocation was tracked.
std::string format_latency_table();

/// Render an alloc-guard verdict: one summary line (PASS / FAIL with
/// the post-warmup totals) plus the per-scope attribution table of the
/// post-warmup window when anything allocated. Empty string when the
/// guard never ran.
std::string format_alloc_guard_table(const AllocGuardReport& r);

/// Render the FULL metrics registry — every counter, gauge (value and
/// high-water mark), and histogram in its raw units — as plain-text
/// tables. The `--metrics` / script `metrics` dump; format_latency_table
/// remains the curated microsecond subset. Empty string when nothing was
/// recorded.
std::string format_metrics_table();

// --- run report ---------------------------------------------------------

inline constexpr const char* kRunReportSchema = "lmp-run-report";
/// v2 added the "link_utilization" and "critical_path" sections;
/// v3 added the "integrity" section (silent-corruption guards);
/// v4 added the "memory" section (per-scope allocation totals, heap
/// high-water, RSS — all zero/absent-scopes when LMP_ALLOC_TRACE=OFF).
inline constexpr int kRunReportVersion = 4;

struct ReportStage {
  std::string name;
  double seconds = 0.0;
  double percent = 0.0;
};

/// One hot fabric link in the v2 link-utilization section, endpoints
/// already rendered as 6D coordinate strings.
struct ReportLink {
  std::string from;
  std::string to;
  std::string axis;  ///< "X+", "B-", ... (axis and direction)
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
};

/// The full end-of-run picture, ready to serialize. Populated by
/// `sim::build_run_report` (the obs layer stays ignorant of sim types);
/// `to_json()` appends whatever the MetricsRegistry holds at write time
/// (histogram summaries, counters, gauges).
struct RunReport {
  std::string workload;
  std::string comm_requested;
  std::string comm_final;
  int nsteps = 0;
  int restart_step = 0;
  int nranks = 0;
  long natoms = 0;
  /// Config echo: key/value pairs, exactly as the run resolved them.
  std::vector<std::pair<std::string, std::string>> config;
  /// Stage breakdown summed over ranks; `stage_total_seconds` is the
  /// denominator used for every percent (computed once, not per row).
  std::vector<ReportStage> stages;
  double stage_total_seconds = 0.0;
  /// The job's health record; its guard counters and recoveries are the
  /// v3 "integrity" section.
  CommHealthReport health;
  // --- v2: fabric link utilization (all zero when metrics were off) ---
  std::uint64_t fabric_total_bytes = 0;    ///< bytes x hops over all puts
  std::uint64_t fabric_total_packets = 0;  ///< packets x hops
  std::uint64_t fabric_puts_charged = 0;
  std::uint64_t fabric_links_used = 0;
  std::uint64_t fabric_max_link_bytes = 0;
  double fabric_mean_link_bytes = 0.0;
  std::vector<ReportLink> top_links;            ///< hottest first
  std::vector<std::uint64_t> hop_histogram;     ///< index = hop count
  // --- v2: critical-path breakdown (empty when tracing was off) -------
  std::vector<ReportStage> critical_path;
  double critical_path_total_seconds = 0.0;
  // --- v4: memory (alloc tracker totals; scopes empty when untracked) -
  bool mem_tracked = false;  ///< LMP_ALLOC_TRACE compiled in
  AllocTotals mem_totals;
  std::vector<AllocSlotStats> mem_scopes;
  std::int64_t mem_rss_bytes = 0;  ///< from /proc at report-build time
  /// First/last thermo samples: (step, temperature, total energy).
  std::vector<std::pair<std::string, double>> thermo_first;
  std::vector<std::pair<std::string, double>> thermo_last;

  std::string to_json() const;
};

// --- bench record -------------------------------------------------------

inline constexpr const char* kBenchRecordSchema = "lmp-bench-record";
inline constexpr int kBenchRecordVersion = 1;

/// One BENCH_*.json-compatible result record: a named experiment with
/// string labels (workload, variant, ...) and numeric metrics. The
/// serialized form adds a "registry" section with whatever the
/// MetricsRegistry holds at write time.
struct BenchRecord {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  std::vector<std::pair<std::string, double>> metrics;

  std::string to_json() const;
};

}  // namespace lmp::obs
