#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "comm/msg_codec.h"
#include "obs/alloc_tracker.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "tofu/network.h"

namespace lmp::comm {

namespace detail {
/// Wait-latency histogram, resolved once (registry lookups lock).
inline obs::Histogram& notice_wait_hist() {
  static obs::Histogram& h =
      obs::MetricsRegistry::instance().histogram("comm.wait_ns");
  return h;
}

/// Static-storage span name per awaited channel kind (TraceSpan keeps the
/// pointer; the "wait." prefix is what the critical-path analyzer keys on).
inline const char* wait_span_name(MsgKind k) {
  switch (k) {
    case MsgKind::kBorder: return "wait.border";
    case MsgKind::kBorderAck: return "wait.border_ack";
    case MsgKind::kForward: return "wait.forward";
    case MsgKind::kReverse: return "wait.reverse";
    case MsgKind::kScalarFwd: return "wait.scalar_fwd";
    case MsgKind::kScalarRev: return "wait.scalar_rev";
    case MsgKind::kExchange: return "wait.exchange";
    case MsgKind::kRetransmitReq: return "wait.retransmit_req";
    default: return "wait.?";
  }
}
}  // namespace detail

inline constexpr int kKindCount = static_cast<int>(MsgKind::kCount);
inline constexpr int kMaxDirs = 26;
/// Deepest per-channel stash a dispatcher can be configured for (see
/// NoticeDispatcher::set_max_outstanding).
inline constexpr int kMaxOutstanding = 2;

/// Knobs of the receiver-driven reliability protocol (active only when
/// `NoticeDispatcher::enable_reliability` has been called).
struct ReliabilityParams {
  /// Hard ceiling on one logical wait; past it, CommTimeoutError.
  std::chrono::milliseconds wait_deadline{120000};
  /// First NACK after this long without the awaited notice...
  std::chrono::milliseconds nack_after{2};
  /// ...then exponential backoff up to this cap.
  std::chrono::milliseconds nack_max{256};
};

/// Receiver-side reliability counters (per dispatcher; summed per rank).
///
/// Copy and assignment take relaxed snapshots of the atomics. Two
/// distinct situations rely on this: dispatchers are *assigned* into
/// their slot vector during setup (the implicit move falls back to this
/// copy), and `health()` snapshots the counters during failover teardown
/// while the owner thread may still be incrementing them — a plain
/// non-atomic copy there would be a data race.
struct DispatcherCounters {
  std::atomic<std::uint64_t> duplicates_dropped{0};

  DispatcherCounters() = default;
  DispatcherCounters(const DispatcherCounters& o)
      : duplicates_dropped(
            o.duplicates_dropped.load(std::memory_order_relaxed)) {}
  DispatcherCounters& operator=(const DispatcherCounters& o) {
    duplicates_dropped.store(
        o.duplicates_dropped.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    return *this;
  }
};

/// Orders the completion notices of one VCQ.
///
/// Notices for different logical channels can interleave on a VCQ (a fast
/// neighbor's forward for step n+1 can land while we still collect
/// reverse notices for step n). The engine's stage ordering guarantees at
/// most ONE outstanding message per (kind, direction, sender), so a
/// single stash slot per (kind, direction) suffices to reorder — except
/// where a comm engine declares a deeper bound for a kind
/// (set_max_outstanding); stashed notices of one channel are delivered
/// in arrival order.
///
/// With reliability enabled (fault-injected runs), the dispatcher also
/// tracks per-channel sequence numbers: stale or duplicate notices are
/// dropped, and a wait that stalls issues NACKs (via the `NackFn`
/// callback, with exponential backoff) asking the sender to replay the
/// missing message. Sequence numbers are 8-bit with wraparound compare —
/// the one-outstanding invariant keeps the window tiny.
///
/// Exactly one thread drives a given dispatcher (it owns the VCQ).
class NoticeDispatcher {
 public:
  /// Called when the awaited (kind, dir) notice is overdue.
  using NackFn = std::function<void(MsgKind kind, int dir)>;

  NoticeDispatcher() { reset_seq(); }
  NoticeDispatcher(tofu::Network* net, tofu::VcqId vcq) : net_(net), vcq_(vcq) {
    reset_seq();
  }

  tofu::VcqId vcq() const { return vcq_; }

  void enable_reliability(NackFn nack, ReliabilityParams params = {}) {
    nack_ = std::move(nack);
    params_ = params;
    reliable_ = true;
  }
  bool reliable() const { return reliable_; }
  void set_wait_deadline(std::chrono::milliseconds d) {
    params_.wait_deadline = d;
  }
  const DispatcherCounters& counters() const { return counters_; }

  /// Let channels of `kind` hold up to `n` unconsumed notices (1 by
  /// default; at most kMaxOutstanding). For a protocol whose pacing
  /// bounds the run-ahead above one, such as the Newton-off ring forward
  /// (CommP2p::setup). One more than the bound is still a logic_error.
  void set_max_outstanding(MsgKind kind, int n) {
    if (n < 1 || n > kMaxOutstanding) {
      throw std::invalid_argument("NoticeDispatcher: max outstanding out of range");
    }
    extra_outstanding_[static_cast<int>(kind)] = n - 1;
  }

  /// Re-admit a replay of the last-seen message on (kind, dir): called
  /// after a CRC reject, whose retransmit re-uses the rejected seq.
  void accept_retransmit(MsgKind kind, int dir) {
    auto& last = last_seq_[static_cast<int>(kind)][dir];
    last = static_cast<std::uint8_t>(last - 1);
  }

  /// Sequence number the next (kind, dir) message should carry — what a
  /// NACK asks the sender to replay. Senders start their channels at 1,
  /// so last+1 is right even before the first delivery.
  std::uint8_t expected_seq(MsgKind kind, int dir) const {
    return static_cast<std::uint8_t>(last_seq_[static_cast<int>(kind)][dir] + 1);
  }

  /// Block until a notice with (kind, dir) is available; stash everything
  /// else that arrives meanwhile. Throws CommTimeoutError (naming the
  /// VCQ and channel) once `wait_deadline` is exceeded, and
  /// JobAbortedError as soon as the fabric is aborted by a failing rank.
  Edata wait(MsgKind kind, int dir) {
    // The notice-wait span: what the sender's flow-start visually binds
    // to once the flow-finish below lands inside it. The matching alloc
    // scope pins any heap traffic during the wait (stash bookkeeping,
    // late registrations) on the same per-channel label.
    const obs::TraceSpan wait_span(obs::TraceCat::kComm,
                                   detail::wait_span_name(kind));
    LMP_ALLOC_SCOPE(detail::wait_span_name(kind));
    StashQueue& slot = stash_[static_cast<int>(kind)][dir];
    int ready = 0;
    while (ready < slot.count && !next_in_order(slot.items[ready].e)) ++ready;
    if (ready < slot.count) {
      const Stashed s = slot.take(ready);
      bump_seq(s.e);
      if (s.flow != 0) {
        LMP_TRACE_FLOW(obs::TraceCat::kComm, obs::kMsgFlowName, s.flow,
                       obs::TraceEvent::kFlowFinish);
      }
      return s.e;
    }
    const auto start = std::chrono::steady_clock::now();
    const std::int64_t wait_t0 = obs::metrics_enabled() ? obs::now_ns() : 0;
    auto backoff = params_.nack_after;
    std::chrono::steady_clock::duration next_nack = params_.nack_after;
    for (std::uint64_t spin = 0;; ++spin) {
      if (auto notice = net_->poll_mrq(vcq_)) {
        const Edata e = Edata::decode(notice->edata);
        if (reliable_ && stale_or_dup(e)) {
          counters_.duplicates_dropped.fetch_add(1, std::memory_order_relaxed);
          LMP_TRACE_INSTANT(obs::TraceCat::kComm, "notice.dup_dropped");
          continue;
        }
        if (e.kind == kind && e.dir == dir && next_in_order(e)) {
          bump_seq(e);
          if (obs::metrics_enabled()) {
            detail::notice_wait_hist().record(
                static_cast<std::uint64_t>(obs::now_ns() - wait_t0));
          }
          if (notice->flow_id != 0) {
            LMP_TRACE_FLOW(obs::TraceCat::kComm, obs::kMsgFlowName,
                           notice->flow_id, obs::TraceEvent::kFlowFinish);
          }
          return e;
        }
        StashQueue& other = stash_[static_cast<int>(e.kind)][e.dir];
        if (reliable_ && other.find_seq(e.seq) >= 0) {
          // Same message delivered twice with it still stashed — a
          // duplicate that raced past the seq filter via the stash.
          counters_.duplicates_dropped.fetch_add(1, std::memory_order_relaxed);
          LMP_TRACE_INSTANT(obs::TraceCat::kComm, "notice.dup_dropped");
          continue;
        }
        if (other.count > extra_outstanding_[static_cast<int>(e.kind)]) {
          throw std::logic_error(
              "too many outstanding messages on one (kind, dir) channel — "
              "stage ordering violated");
        }
        other.push(Stashed{e, notice->flow_id});
        continue;
      }
      if ((spin & 0x3FF) == 0) {
        // A fabric abort (failover teardown) must unblock this wait
        // promptly — with NACK backoff in flight, spinning out the full
        // deadline against a peer that is already gone would stall every
        // surviving rank for minutes.
        net_->check_aborted();
        const auto waited = std::chrono::steady_clock::now() - start;
        if (waited >= params_.wait_deadline) {
          std::ostringstream os;
          os << "timeout after " << params_.wait_deadline.count()
             << " ms waiting for " << kind_name(kind) << " notice, dir " << dir
             << ", on VCQ " << vcq_;
          throw tofu::CommTimeoutError(os.str());
        }
        if (reliable_ && nack_ && waited >= next_nack) {
          LMP_TRACE_INSTANT(obs::TraceCat::kComm, "nack.issued");
          nack_(kind, dir);
          backoff = (std::min)(backoff * 2, params_.nack_max);
          next_nack = waited + backoff;
        }
      }
      std::this_thread::yield();
    }
  }

  /// Drain the sender-side completion of the most recent put (models the
  /// TCQ poll a real uTofu sender performs before reusing its buffer).
  void drain_tcq() { net_->wait_tcq(vcq_, params_.wait_deadline); }

 private:
  /// Signed wraparound compare: seq at or behind the last consumed one on
  /// this channel means duplicate or stale (e.g. a delayed original whose
  /// replay already arrived). Stashed notices count once consumed, so
  /// accept_retransmit always re-admits the notice a wait just returned.
  bool stale_or_dup(const Edata& e) const {
    const std::uint8_t last = last_seq_[static_cast<int>(e.kind)][e.dir];
    if (!seq_seen_[static_cast<int>(e.kind)][e.dir]) return false;
    return static_cast<std::int8_t>(e.seq - last) <= 0;
  }
  /// Whether `e` may complete a wait on its channel now. A channel allowed
  /// more than one outstanding notice completes in seq order under
  /// reliability, so a replay of a CRC-rejected notice is never overtaken
  /// by its already-delivered successor; a one-deep channel never sees a
  /// successor early.
  bool next_in_order(const Edata& e) const {
    return !reliable_ || extra_outstanding_[static_cast<int>(e.kind)] == 0 ||
           e.seq == expected_seq(e.kind, e.dir);
  }
  void bump_seq(const Edata& e) {
    if (!reliable_) return;
    last_seq_[static_cast<int>(e.kind)][e.dir] = e.seq;
    seq_seen_[static_cast<int>(e.kind)][e.dir] = true;
  }
  void reset_seq() {
    for (int k = 0; k < kKindCount; ++k) {
      for (int d = 0; d < kMaxDirs; ++d) {
        last_seq_[k][d] = 0;
        seq_seen_[k][d] = false;
      }
    }
  }

  /// A reordered notice parked for a later wait, with the trace flow id
  /// that arrived alongside it (closed when the wait consumes it).
  struct Stashed {
    Edata e;
    std::uint64_t flow = 0;
  };
  /// One channel's parked notices, oldest first.
  struct StashQueue {
    Stashed items[kMaxOutstanding] = {};
    int count = 0;

    void push(const Stashed& s) { items[count++] = s; }
    Stashed take(int i) {
      const Stashed out = items[i];
      for (int k = i + 1; k < count; ++k) items[k - 1] = items[k];
      --count;
      return out;
    }
    int find_seq(std::uint8_t seq) const {
      for (int i = 0; i < count; ++i) {
        if (items[i].e.seq == seq) return i;
      }
      return -1;
    }
  };

  tofu::Network* net_ = nullptr;
  tofu::VcqId vcq_ = tofu::kInvalidVcq;
  StashQueue stash_[kKindCount][kMaxDirs] = {};
  int extra_outstanding_[kKindCount] = {};  ///< allowed beyond one, per kind
  std::uint8_t last_seq_[kKindCount][kMaxDirs];
  bool seq_seen_[kKindCount][kMaxDirs];
  bool reliable_ = false;
  NackFn nack_;
  ReliabilityParams params_{};
  DispatcherCounters counters_;
};

}  // namespace lmp::comm
