#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/report.h"

namespace lmp::comm {

/// Soft escalation thresholds on the per-rank `CommHealthReport`
/// counters, assessed collectively at every checkpoint step. A value of
/// 0 disables that counter's threshold; `min_tnis` of 0 disables the
/// TNI floor. With everything disabled only *hard* comm errors
/// (CommTimeoutError, UnreachableError) trigger a failover.
struct HealthThresholds {
  std::uint64_t max_nacks = 0;         ///< retransmit requests issued
  std::uint64_t max_retransmits = 0;   ///< replays served to peers
  std::uint64_t max_crc_rejects = 0;   ///< corrupted payloads detected
  std::uint64_t max_duplicates = 0;    ///< stale/dup notices filtered
  int min_tnis = 0;                    ///< fewer surviving TNIs escalates

  bool any() const {
    return max_nacks > 0 || max_retransmits > 0 || max_crc_rejects > 0 ||
           max_duplicates > 0 || min_tnis > 0;
  }
};

/// Outcome of one threshold assessment.
struct EscalationDecision {
  bool escalate = false;
  std::string reason;  ///< which counter tripped, with its value and limit
};

/// Escalation policy: compares a health report against the thresholds
/// and names every exceeded budget. Stateless — the counters themselves
/// accumulate inside the comm layer, so a variant that keeps limping
/// eventually crosses a budget even at a low per-step fault rate.
class HealthMonitor {
 public:
  explicit HealthMonitor(HealthThresholds thresholds = {})
      : thr_(thresholds) {}

  const HealthThresholds& thresholds() const { return thr_; }
  bool enabled() const { return thr_.any(); }

  EscalationDecision assess(const obs::CommHealthReport& h) const;

 private:
  HealthThresholds thr_;
};

/// One-line counter summary for escalation-event reasons ("nacks=12
/// retransmits=7 ..."), so the health table can tell the recovery story
/// without reprinting a full report per event.
std::string describe_counters(const obs::CommHealthReport& h);

/// The paper-ordered degradation ladder: each step gives up fabric
/// parallelism (6 TNIs -> 4 TNIs), then the fabric itself (-> MPI p2p),
/// then the optimized pattern (-> reference brick comm).
std::vector<std::string> default_failover_chain();

/// Full escalation order for a run that starts on `active`: `active`
/// first, then the chain entries after `active`'s position — or, when
/// `active` is not in the chain, the whole chain as fallbacks.
std::vector<std::string> resolve_failover_chain(
    const std::string& active, const std::vector<std::string>& chain);

}  // namespace lmp::comm
