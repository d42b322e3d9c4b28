#include "obs/report.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <tuple>

#include "obs/metrics.h"
#include "util/table_printer.h"

namespace lmp::obs {

using util::TablePrinter;

void JsonWriter::comma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_in_scope_.back()) out_ += ",";
  first_in_scope_.back() = false;
}

void JsonWriter::escape(const std::string& s) {
  out_ += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out_ += buf;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += "{";
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += "}";
  first_in_scope_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += "[";
  first_in_scope_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += "]";
  first_in_scope_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& k) {
  comma();
  escape(k);
  out_ += ":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  comma();
  escape(v);
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) { return value(std::string(v)); }

JsonWriter& JsonWriter::value(double v) {
  comma();
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // %.17g prints bare "inf"/"nan", which is not JSON — null is.
  for (const char* p = buf; *p != '\0'; ++p) {
    if (*p == 'n' || *p == 'i' || *p == 'N' || *p == 'I') {
      out_ += "null";
      return *this;
    }
  }
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma();
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma();
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(int v) {
  return value(static_cast<std::int64_t>(v));
}

JsonWriter& JsonWriter::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
  return *this;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(text.data(), 1, text.size(), f);
  const int rc = std::fclose(f);
  return n == text.size() && rc == 0;
}

void merge_escalations(std::vector<EscalationEvent>& into,
                       const std::vector<EscalationEvent>& from) {
  into.insert(into.end(), from.begin(), from.end());
  std::stable_sort(into.begin(), into.end(),
                   [](const EscalationEvent& a, const EscalationEvent& b) {
                     return a.fail_step < b.fail_step;
                   });
  const auto same = [](const EscalationEvent& a, const EscalationEvent& b) {
    return std::tie(a.fail_step, a.from_variant, a.to_variant) ==
           std::tie(b.fail_step, b.from_variant, b.to_variant);
  };
  into.erase(std::unique(into.begin(), into.end(), same), into.end());
}

void merge_integrity_events(std::vector<IntegrityEvent>& into,
                            const std::vector<IntegrityEvent>& from) {
  into.insert(into.end(), from.begin(), from.end());
  std::stable_sort(into.begin(), into.end(),
                   [](const IntegrityEvent& a, const IntegrityEvent& b) {
                     return a.detect_step < b.detect_step;
                   });
  const auto same = [](const IntegrityEvent& a, const IntegrityEvent& b) {
    return std::tie(a.detect_step, a.resume_step, a.verdict) ==
           std::tie(b.detect_step, b.resume_step, b.verdict);
  };
  into.erase(std::unique(into.begin(), into.end(), same), into.end());
}

CommHealthReport& CommHealthReport::operator+=(const CommHealthReport& o) {
  nacks_sent += o.nacks_sent;
  retransmits_served += o.retransmits_served;
  duplicates_dropped += o.duplicates_dropped;
  crc_rejects += o.crc_rejects;
  notices_dropped += o.notices_dropped;
  notices_delayed += o.notices_delayed;
  notices_duplicated += o.notices_duplicated;
  payloads_corrupted += o.payloads_corrupted;
  tni_drops += o.tni_drops;
  retransmit_puts += o.retransmit_puts;
  unreachable_puts += o.unreachable_puts;
  fabric_puts += o.fabric_puts;
  tnis_in_use = std::max(tnis_in_use, o.tnis_in_use);
  tnis_down = std::max(tnis_down, o.tnis_down);
  checkpoints_written += o.checkpoints_written;
  checkpoint_io_seconds += o.checkpoint_io_seconds;
  merge_escalations(escalations, o.escalations);
  integrity_checks += o.integrity_checks;
  integrity_detections += o.integrity_detections;
  integrity_rollbacks += o.integrity_rollbacks;
  mem_flips_injected += o.mem_flips_injected;
  merge_integrity_events(integrity_events, o.integrity_events);
  return *this;
}

namespace {

/// The counters of the "health" report section and the table's first
/// rows, in that order — one list for both renderings.
template <typename Fn>
void for_each_health_counter(const CommHealthReport& h, Fn&& fn) {
  fn("nacks_sent", h.nacks_sent);
  fn("retransmits_served", h.retransmits_served);
  fn("duplicates_dropped", h.duplicates_dropped);
  fn("crc_rejects", h.crc_rejects);
  fn("notices_dropped", h.notices_dropped);
  fn("notices_delayed", h.notices_delayed);
  fn("notices_duplicated", h.notices_duplicated);
  fn("payloads_corrupted", h.payloads_corrupted);
  fn("tni_drops", h.tni_drops);
  fn("retransmit_puts", h.retransmit_puts);
  fn("unreachable_puts", h.unreachable_puts);
  fn("fabric_puts", h.fabric_puts);
  fn("tnis_in_use", static_cast<std::uint64_t>(h.tnis_in_use));
  fn("tnis_down", static_cast<std::uint64_t>(h.tnis_down));
  fn("checkpoints_written", h.checkpoints_written);
}

/// Shared metrics section: everything the registry accumulated during
/// the run, so reports stay in sync with new instrumentation for free.
/// `section` must differ from the caller's other keys — a BenchRecord
/// already owns "metrics" for its headline numbers.
void append_metrics(JsonWriter& w, const char* section) {
  w.key(section).begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, v] : MetricsRegistry::instance().counters()) {
    w.kv(name, v);
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, v] : MetricsRegistry::instance().gauges()) {
    w.kv(name, static_cast<std::int64_t>(v));
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, s] : MetricsRegistry::instance().histograms()) {
    w.key(name).begin_object();
    w.kv("count", s.count);
    w.kv("mean", s.mean);
    w.kv("p50", s.p50);
    w.kv("p95", s.p95);
    w.kv("p99", s.p99);
    w.kv("min", s.count > 0 ? s.min : 0);
    w.kv("max", s.max);
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

}  // namespace

std::string format_health_table(const CommHealthReport& h) {
  TablePrinter t({"comm health", "count"});
  const auto row = [&t](const char* name, std::uint64_t v) {
    t.add_row({name, std::to_string(v)});
  };
  for_each_health_counter(h, row);
  t.add_row({"checkpoint_io_s", TablePrinter::fmt(h.checkpoint_io_seconds, 3)});
  t.add_row({"escalations", std::to_string(h.escalations.size())});
  row("integrity_checks", h.integrity_checks);
  row("integrity_detections", h.integrity_detections);
  row("integrity_rollbacks", h.integrity_rollbacks);
  row("mem_flips_injected", h.mem_flips_injected);
  std::string out = t.to_string();
  // The recovery story: one line per failover, after the counter table.
  for (const EscalationEvent& e : h.escalations) {
    out += "escalation at step " + std::to_string(e.fail_step) + ": " +
           e.from_variant + " -> " + e.to_variant + " (resumed from step " +
           std::to_string(e.resume_step) + "; " + e.reason + ")\n";
  }
  // One line per healed corruption, in the same grep-able style.
  for (const IntegrityEvent& e : h.integrity_events) {
    out += "integrity rollback at step " + std::to_string(e.detect_step) +
           ": resumed from step " + std::to_string(e.resume_step) +
           " (verdict=" + e.verdict + "; " + e.reason + ")\n";
  }
  return out;
}

std::string format_latency_table() {
  const auto hists = MetricsRegistry::instance().histograms();
  bool any = false;
  for (const auto& [name, s] : hists) any = any || s.count > 0;
  std::string out;
  if (any) {
    // Full Summary exposure: count and min/max alongside the percentiles,
    // so the curated view no longer hides the extremes behind raw JSON.
    TablePrinter t({"latency (us)", "count", "mean", "p50", "p95", "p99",
                    "min", "max"});
    const auto us = [](double ns) {
      return TablePrinter::fmt(ns / 1000.0, 3);
    };
    for (const auto& [name, s] : hists) {
      if (s.count == 0) continue;
      t.add_row({name, std::to_string(s.count), us(s.mean), us(s.p50),
                 us(s.p95), us(s.p99), us(static_cast<double>(s.min)),
                 us(static_cast<double>(s.max))});
    }
    out = t.to_string();
  }
  // Heap traffic per attribution scope (alloc tracker): the same stage /
  // wait / slice labels as the spans above, plus whatever ran outside
  // any scope. Absent entirely when LMP_ALLOC_TRACE is compiled out.
  const auto scopes = AllocTracker::instance().by_scope();
  if (!scopes.empty()) {
    const AllocTotals tot = AllocTracker::instance().totals();
    TablePrinter a({"alloc scope", "allocs", "frees", "bytes", "freed bytes"});
    for (const AllocSlotStats& s : scopes) {
      a.add_row({s.name, std::to_string(s.allocs), std::to_string(s.frees),
                 std::to_string(s.bytes), std::to_string(s.freed_bytes)});
    }
    a.add_row({"(total)", std::to_string(tot.allocs), std::to_string(tot.frees),
               std::to_string(tot.bytes), std::to_string(tot.freed_bytes)});
    out += a.to_string();
  }
  return out;
}

std::string format_alloc_guard_table(const AllocGuardReport& r) {
  std::string out;
  if (!r.enabled) return out;
  if (!r.tracker_available) {
    return "alloc guard: tracker not compiled in (build with "
           "-DLMP_ALLOC_TRACE=ON) — nothing checked\n";
  }
  out += "alloc guard: warmup " + std::to_string(r.warmup_steps) +
         " steps, checked " + std::to_string(r.steps_checked) + " steps: " +
         (r.passed()
              ? "PASS — zero steady-state allocations\n"
              : "FAIL — " + std::to_string(r.steps_with_allocs) +
                    " steps allocated (first at step " +
                    std::to_string(r.first_alloc_step) + "; " +
                    std::to_string(r.post_warmup_allocs) + " allocs, " +
                    std::to_string(r.post_warmup_bytes) +
                    " bytes past warmup)\n");
  if (!r.rows.empty()) {
    TablePrinter t({"post-warmup scope", "allocs", "frees", "bytes"});
    for (const AllocSlotStats& s : r.rows) {
      t.add_row({s.name, std::to_string(s.allocs), std::to_string(s.frees),
                 std::to_string(s.bytes)});
    }
    out += t.to_string();
  }
  return out;
}

std::string format_metrics_table() {
  const auto counters = MetricsRegistry::instance().counters();
  const auto gauges = MetricsRegistry::instance().gauges();
  const auto hists = MetricsRegistry::instance().histograms();
  std::string out;
  bool any_counter = false;
  for (const auto& [name, v] : counters) any_counter = any_counter || v > 0;
  if (any_counter) {
    TablePrinter t({"counter", "value"});
    for (const auto& [name, v] : counters) t.add_row({name, std::to_string(v)});
    out += t.to_string();
  }
  bool any_gauge = false;
  for (const auto& [name, g] : gauges) any_gauge = any_gauge || g != 0;
  if (any_gauge) {
    TablePrinter t({"gauge", "value"});
    for (const auto& [name, v] : gauges) t.add_row({name, std::to_string(v)});
    out += t.to_string();
  }
  bool any_hist = false;
  for (const auto& [name, s] : hists) any_hist = any_hist || s.count > 0;
  if (any_hist) {
    // Raw units (ns for latencies, entries for depths) — the curated
    // microsecond view is format_latency_table.
    TablePrinter t({"histogram", "count", "mean", "p50", "p95", "p99", "min",
                    "max"});
    for (const auto& [name, s] : hists) {
      if (s.count == 0) continue;
      t.add_row({name, std::to_string(s.count), TablePrinter::fmt(s.mean, 1),
                 TablePrinter::fmt(s.p50, 1), TablePrinter::fmt(s.p95, 1),
                 TablePrinter::fmt(s.p99, 1), std::to_string(s.min),
                 std::to_string(s.max)});
    }
    out += t.to_string();
  }
  return out;
}

std::string RunReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", kRunReportSchema);
  w.kv("version", kRunReportVersion);
  w.kv("workload", workload);
  w.kv("comm_requested", comm_requested);
  w.kv("comm_final", comm_final);
  w.kv("nsteps", nsteps);
  w.kv("restart_step", restart_step);
  w.kv("nranks", nranks);
  w.kv("natoms", static_cast<std::int64_t>(natoms));

  w.key("config").begin_object();
  for (const auto& [k, v] : config) w.kv(k, v);
  w.end_object();

  w.key("stages").begin_object();
  for (const ReportStage& s : stages) {
    w.key(s.name).begin_object();
    w.kv("seconds", s.seconds);
    w.kv("percent", s.percent);
    w.end_object();
  }
  w.kv("total_seconds", stage_total_seconds);
  w.end_object();

  w.key("health").begin_object();
  for_each_health_counter(
      health, [&w](const char* k, std::uint64_t v) { w.kv(k, v); });
  w.kv("checkpoint_io_seconds", health.checkpoint_io_seconds);
  w.key("escalations").begin_array();
  for (const EscalationEvent& e : health.escalations) {
    w.begin_object();
    w.kv("fail_step", e.fail_step);
    w.kv("resume_step", e.resume_step);
    w.kv("from", e.from_variant);
    w.kv("to", e.to_variant);
    w.kv("reason", e.reason);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("integrity").begin_object();
  w.kv("checks", health.integrity_checks);
  w.kv("detections", health.integrity_detections);
  w.kv("rollbacks", health.integrity_rollbacks);
  w.kv("mem_flips_injected", health.mem_flips_injected);
  w.key("events").begin_array();
  for (const IntegrityEvent& e : health.integrity_events) {
    w.begin_object();
    w.kv("detect_step", e.detect_step);
    w.kv("resume_step", e.resume_step);
    w.kv("verdict", e.verdict);
    w.kv("reason", e.reason);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("link_utilization").begin_object();
  w.kv("total_bytes", fabric_total_bytes);
  w.kv("total_packets", fabric_total_packets);
  w.kv("puts_charged", fabric_puts_charged);
  w.kv("links_used", fabric_links_used);
  w.kv("max_link_bytes", fabric_max_link_bytes);
  w.kv("mean_link_bytes", fabric_mean_link_bytes);
  w.key("top_links").begin_array();
  for (const ReportLink& l : top_links) {
    w.begin_object();
    w.kv("from", l.from);
    w.kv("to", l.to);
    w.kv("axis", l.axis);
    w.kv("bytes", l.bytes);
    w.kv("packets", l.packets);
    w.end_object();
  }
  w.end_array();
  w.key("hop_histogram").begin_array();
  for (const std::uint64_t h : hop_histogram) w.value(h);
  w.end_array();
  w.end_object();

  w.key("critical_path").begin_object();
  for (const ReportStage& s : critical_path) {
    w.key(s.name).begin_object();
    w.kv("seconds", s.seconds);
    w.kv("percent", s.percent);
    w.end_object();
  }
  w.kv("total_seconds", critical_path_total_seconds);
  w.end_object();

  w.key("memory").begin_object();
  w.kv("tracked", mem_tracked);
  w.kv("total_allocs", mem_totals.allocs);
  w.kv("total_frees", mem_totals.frees);
  w.kv("total_bytes", mem_totals.bytes);
  w.kv("live_bytes", mem_totals.live_bytes);
  w.kv("heap_high_water_bytes", mem_totals.high_water_bytes);
  w.kv("rss_bytes", mem_rss_bytes);
  w.key("scopes").begin_object();
  for (const AllocSlotStats& s : mem_scopes) {
    w.key(s.name).begin_object();
    w.kv("allocs", s.allocs);
    w.kv("frees", s.frees);
    w.kv("bytes", s.bytes);
    w.end_object();
  }
  w.end_object();
  w.end_object();

  w.key("thermo_first").begin_object();
  for (const auto& [k, v] : thermo_first) w.kv(k, v);
  w.end_object();
  w.key("thermo_last").begin_object();
  for (const auto& [k, v] : thermo_last) w.kv(k, v);
  w.end_object();

  append_metrics(w, "metrics");
  w.end_object();
  return w.str() + "\n";
}

std::string BenchRecord::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", kBenchRecordSchema);
  w.kv("version", kBenchRecordVersion);
  w.kv("name", name);
  w.key("labels").begin_object();
  for (const auto& [k, v] : labels) w.kv(k, v);
  w.end_object();
  w.key("metrics").begin_object();
  for (const auto& [k, v] : metrics) w.kv(k, v);
  w.end_object();
  append_metrics(w, "registry");
  w.end_object();
  return w.str() + "\n";
}

}  // namespace lmp::obs
