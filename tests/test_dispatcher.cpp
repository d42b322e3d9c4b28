#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "comm/dispatcher.h"

namespace lmp::comm {
namespace {

struct Fixture {
  tofu::Network net{2};
  tofu::VcqId sender;
  tofu::VcqId receiver;
  NoticeDispatcher dispatch;

  Fixture() {
    sender = net.create_vcq(0, 0, 0);
    receiver = net.create_vcq(1, 0, 0);
    dispatch = NoticeDispatcher(&net, receiver);
  }

  void post(MsgKind kind, int dir, std::uint32_t value) {
    net.put_piggyback(sender, receiver,
                      Edata{kind, dir, 0, value}.encode());
  }
};

TEST(NoticeDispatcher, DeliversMatchingNotice) {
  Fixture f;
  f.post(MsgKind::kForward, 3, 42);
  const Edata e = f.dispatch.wait(MsgKind::kForward, 3);
  EXPECT_EQ(e.value, 42u);
  EXPECT_EQ(e.dir, 3);
}

TEST(NoticeDispatcher, ReordersInterleavedKinds) {
  // A forward for step n+1 lands before the reverse for step n — the
  // exact interleaving the stage ordering allows.
  Fixture f;
  f.post(MsgKind::kForward, 1, 100);
  f.post(MsgKind::kReverse, 1, 200);
  const Edata rev = f.dispatch.wait(MsgKind::kReverse, 1);
  EXPECT_EQ(rev.value, 200u);
  const Edata fwd = f.dispatch.wait(MsgKind::kForward, 1);
  EXPECT_EQ(fwd.value, 100u);
}

TEST(NoticeDispatcher, ReordersAcrossDirections) {
  Fixture f;
  for (int d = 0; d < 5; ++d) {
    f.post(MsgKind::kBorder, d, static_cast<std::uint32_t>(d * 10));
  }
  // Consume in reverse direction order.
  for (int d = 4; d >= 0; --d) {
    EXPECT_EQ(f.dispatch.wait(MsgKind::kBorder, d).value,
              static_cast<std::uint32_t>(d * 10));
  }
}

TEST(NoticeDispatcher, ShuffledPerDirectionWaitsAllComplete) {
  // Async-executor regression: the step DAG completes forward waits in
  // whatever order workers claim them, not in channel order, and the
  // notices themselves can land late relative to the first wait. The
  // dispatcher must route every (kind, dir) to its waiter regardless of
  // either ordering. Seeded shuffles keep failures reproducible.
  std::mt19937 rng(1234u);
  for (int round = 0; round < 10; ++round) {
    Fixture f;
    std::vector<int> dirs(13);
    std::iota(dirs.begin(), dirs.end(), 0);

    // Half the notices are posted up front, the other half trickle in
    // from a "peer" thread while the waits are already in progress.
    std::vector<int> early(dirs.begin(), dirs.begin() + 6);
    std::vector<int> late(dirs.begin() + 6, dirs.end());
    std::shuffle(early.begin(), early.end(), rng);
    std::shuffle(late.begin(), late.end(), rng);
    for (const int d : early) {
      f.post(MsgKind::kForward, d, static_cast<std::uint32_t>(1000 + d));
    }
    std::thread peer([&] {
      for (const int d : late) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        f.post(MsgKind::kForward, d, static_cast<std::uint32_t>(1000 + d));
      }
    });

    // Consume in a shuffled order unrelated to the post order.
    std::vector<int> wait_order = dirs;
    std::shuffle(wait_order.begin(), wait_order.end(), rng);
    for (const int d : wait_order) {
      EXPECT_EQ(f.dispatch.wait(MsgKind::kForward, d).value,
                static_cast<std::uint32_t>(1000 + d));
    }
    peer.join();
  }
}

TEST(NoticeDispatcher, DoubleOutstandingChannelIsAProtocolError) {
  // Two unconsumed messages on one (kind, dir) channel violates the
  // at-most-one-in-flight invariant the engine relies on.
  Fixture f;
  f.post(MsgKind::kExchange, 7, 1);
  f.post(MsgKind::kExchange, 7, 2);
  EXPECT_THROW(f.dispatch.wait(MsgKind::kBorder, 0), std::logic_error);
}

TEST(NoticeDispatcher, DeclaredDeeperBoundStashesInArrivalOrder) {
  // The Newton-off ring forward lets a neighbor run one step ahead:
  // with the bound raised to two, both notices park and come out oldest
  // first; a third is still a protocol error, and other kinds keep the
  // one-deep bound.
  Fixture f;
  f.dispatch.set_max_outstanding(MsgKind::kForward, 2);
  f.post(MsgKind::kForward, 7, 1);
  f.post(MsgKind::kForward, 7, 2);
  f.post(MsgKind::kBorder, 0, 9);
  EXPECT_EQ(f.dispatch.wait(MsgKind::kBorder, 0).value, 9u);
  EXPECT_EQ(f.dispatch.wait(MsgKind::kForward, 7).value, 1u);
  f.post(MsgKind::kForward, 7, 3);
  EXPECT_EQ(f.dispatch.wait(MsgKind::kForward, 7).value, 2u);
  EXPECT_EQ(f.dispatch.wait(MsgKind::kForward, 7).value, 3u);

  for (std::uint32_t v = 4; v <= 6; ++v) f.post(MsgKind::kForward, 7, v);
  EXPECT_THROW(f.dispatch.wait(MsgKind::kBorder, 0), std::logic_error);

  Fixture g;
  g.dispatch.set_max_outstanding(MsgKind::kForward, 2);
  g.post(MsgKind::kExchange, 7, 1);
  g.post(MsgKind::kExchange, 7, 2);
  EXPECT_THROW(g.dispatch.wait(MsgKind::kBorder, 0), std::logic_error);

  EXPECT_THROW(g.dispatch.set_max_outstanding(MsgKind::kForward, 0),
               std::invalid_argument);
  EXPECT_THROW(
      g.dispatch.set_max_outstanding(MsgKind::kForward, kMaxOutstanding + 1),
      std::invalid_argument);
}

TEST(NoticeDispatcher, RetransmitAfterDeepStashAsksForTheRejectedSeq) {
  // Two forwards stashed (seq 1, 2); the consumer takes seq 1 and its CRC
  // check fails. The NACK must ask for seq 1 again — not seq 3, which a
  // sequence counter bumped at stash time would request — and the replay
  // must complete the next wait ahead of the still-stashed seq 2.
  Fixture f;
  f.dispatch.enable_reliability([](MsgKind, int) {});
  f.dispatch.set_max_outstanding(MsgKind::kForward, 2);
  auto post_seq = [&f](MsgKind kind, int dir, std::uint32_t value,
                       std::uint8_t seq) {
    Edata e{kind, dir, 0, value};
    e.seq = seq;
    f.net.put_piggyback(f.sender, f.receiver, e.encode());
  };
  post_seq(MsgKind::kForward, 7, 10, 1);
  post_seq(MsgKind::kForward, 7, 20, 2);
  post_seq(MsgKind::kBorder, 0, 9, 1);
  EXPECT_EQ(f.dispatch.wait(MsgKind::kBorder, 0).value, 9u);
  EXPECT_EQ(f.dispatch.wait(MsgKind::kForward, 7).seq, 1);
  f.dispatch.accept_retransmit(MsgKind::kForward, 7);
  EXPECT_EQ(f.dispatch.expected_seq(MsgKind::kForward, 7), 1);
  post_seq(MsgKind::kForward, 7, 11, 1);
  const Edata replay = f.dispatch.wait(MsgKind::kForward, 7);
  EXPECT_EQ(replay.seq, 1);
  EXPECT_EQ(replay.value, 11u);
  EXPECT_EQ(f.dispatch.wait(MsgKind::kForward, 7).value, 20u);
}

TEST(NoticeDispatcher, ReliableWaitParksALaterSeqUntilItsTurn) {
  // The successor (seq 2) lands before the awaited seq 1 — a replay
  // overtaken on the wire. The wait must hold out for seq 1 and then
  // hand seq 2 to the next wait.
  Fixture f;
  f.dispatch.enable_reliability([](MsgKind, int) {});
  f.dispatch.set_max_outstanding(MsgKind::kForward, 2);
  Edata two{MsgKind::kForward, 7, 0, 20};
  two.seq = 2;
  Edata one{MsgKind::kForward, 7, 0, 10};
  one.seq = 1;
  f.net.put_piggyback(f.sender, f.receiver, two.encode());
  f.net.put_piggyback(f.sender, f.receiver, one.encode());
  EXPECT_EQ(f.dispatch.wait(MsgKind::kForward, 7).value, 10u);
  EXPECT_EQ(f.dispatch.wait(MsgKind::kForward, 7).value, 20u);
}

TEST(NoticeDispatcher, TeardownWithInFlightNackBackoff) {
  // Failover regression: a dispatcher stuck in a reliable wait (NACKs
  // firing, long deadline) must unblock via the fabric abort, and its
  // counters must still be safely snapshot-able from another thread
  // while the waiter is live — the relaxed-copy semantics of
  // DispatcherCounters.
  using namespace std::chrono_literals;
  Fixture f;
  std::atomic<int> nacks{0};
  ReliabilityParams params;
  params.nack_after = 1ms;
  params.nack_max = 2ms;
  params.wait_deadline = 10000ms;  // far longer than the test may take
  f.dispatch.enable_reliability([&](MsgKind, int) { nacks.fetch_add(1); },
                                params);

  std::thread waiter([&] {
    EXPECT_THROW(f.dispatch.wait(MsgKind::kForward, 0),
                 tofu::JobAbortedError);
  });
  // Let the backoff machinery engage before pulling the plug.
  while (nacks.load() < 3) std::this_thread::yield();
  const DispatcherCounters snapshot = f.dispatch.counters();  // concurrent copy
  EXPECT_EQ(snapshot.duplicates_dropped.load(), 0u);
  f.net.abort_fabric("teardown test");
  const auto t0 = std::chrono::steady_clock::now();
  waiter.join();
  // Prompt unblock: the 10 s deadline was never waited out.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s);
  EXPECT_GE(nacks.load(), 3);
}

TEST(NoticeDispatcher, RetransmitKeepsOneFlowAcrossSegments) {
  // Satellite guarantee of the causal tracing: a CRC-rejected message
  // and its NACKed replay must read as ONE flow in the trace — the
  // original put emits "s", the retransmit "t", and every delivery "f"
  // on the same id — not as two unrelated flows.
  if (!obs::trace_compiled_in()) GTEST_SKIP() << "built with LMP_TRACE=OFF";
  obs::Tracer::instance().reset();
  obs::set_trace_categories(static_cast<std::uint32_t>(obs::TraceCat::kComm));
  struct CatsOff {
    ~CatsOff() {
      obs::set_trace_categories(0);
      obs::Tracer::instance().reset();
    }
  } guard;

  Fixture f;
  f.dispatch.enable_reliability([](MsgKind, int) {});
  const std::uint64_t flow = (1ull << 32) | 7;

  // Original data-mode put carries the flow id end to end.
  f.net.put_piggyback(f.sender, f.receiver,
                      Edata{MsgKind::kForward, 2, 1, 5}.encode(),
                      tofu::PutMode::kData, flow);
  EXPECT_EQ(f.dispatch.wait(MsgKind::kForward, 2).value, 5u);

  // Receiver-side CRC reject: re-admit the seq and have the sender
  // replay — the retransmit put travels under the SAME flow id.
  f.dispatch.accept_retransmit(MsgKind::kForward, 2);
  f.net.put_piggyback(f.sender, f.receiver,
                      Edata{MsgKind::kForward, 2, 1, 5}.encode(),
                      tofu::PutMode::kRetransmit, flow);
  EXPECT_EQ(f.dispatch.wait(MsgKind::kForward, 2).value, 5u);

  int starts = 0;
  int steps = 0;
  int finishes = 0;
  for (const obs::CollectedEvent& e : obs::Tracer::instance().snapshot_events()) {
    if (e.event.kind == obs::TraceEvent::kFlowStart ||
        e.event.kind == obs::TraceEvent::kFlowStep ||
        e.event.kind == obs::TraceEvent::kFlowFinish) {
      EXPECT_EQ(static_cast<std::uint64_t>(e.event.value), flow);
      starts += e.event.kind == obs::TraceEvent::kFlowStart ? 1 : 0;
      steps += e.event.kind == obs::TraceEvent::kFlowStep ? 1 : 0;
      finishes += e.event.kind == obs::TraceEvent::kFlowFinish ? 1 : 0;
    }
  }
  EXPECT_EQ(starts, 1);    // exactly one flow began
  EXPECT_EQ(steps, 1);     // the retransmit is a segment, not a new flow
  EXPECT_EQ(finishes, 2);  // both deliveries closed onto the same flow
}

TEST(NoticeDispatcher, DrainTcqConsumesSenderCompletion) {
  Fixture f;
  NoticeDispatcher send_side(&f.net, f.sender);
  f.post(MsgKind::kBorderAck, 0, 9);
  send_side.drain_tcq();
  EXPECT_FALSE(f.net.poll_tcq(f.sender).has_value());
}

}  // namespace
}  // namespace lmp::comm
