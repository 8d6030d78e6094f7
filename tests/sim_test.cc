// Unit tests for the discrete-event simulator and the network model:
// event ordering, timers, link bandwidth/propagation math, drop-tail
// queues, random loss, routing, and the Fig. 2 topology builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/net.h"
#include "sim/simulator.h"
#include "sim/timer.h"
#include "sim/topology.h"

namespace mpq::sim {
namespace {

TEST(Simulator, ExecutesInTimestampOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(300, [&] { order.push_back(3); });
  sim.Schedule(100, [&] { order.push_back(1); });
  sim.Schedule(200, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300);
}

TEST(Simulator, FifoAmongEqualTimestamps) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(50, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.Schedule(100, [&] { fired = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, CancelUnknownIdIsNoop) {
  Simulator sim;
  sim.Cancel(999);  // must not crash or affect anything
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, CancelledSlotReuseNeverFiresStaleEntry) {
  // Cancelling removes the event's heap entry and frees its storage
  // slot, which the next event reuses. Nothing of the cancelled event
  // (due at 100) may fire the new event (due at 200) early or twice.
  Simulator sim;
  std::vector<TimePoint> fired_at;
  const Simulator::EventId cancelled =
      sim.ScheduleAt(100, [&] { fired_at.push_back(-1); });
  sim.Cancel(cancelled);
  const Simulator::EventId live =
      sim.ScheduleAt(200, [&] { fired_at.push_back(sim.now()); });
  EXPECT_NE(live, cancelled);

  // The explorer's lookups by id see only the live event.
  EXPECT_FALSE(sim.FireEvent(cancelled));
  EXPECT_EQ(sim.DuplicateEvent(cancelled), 0u);
  const auto pending = sim.PendingEvents();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].id, live);
  EXPECT_EQ(pending[0].when, 200);

  EXPECT_FALSE(sim.RunOne(150));  // nothing is left due at 100
  EXPECT_EQ(sim.now(), 0);
  const Simulator::EventId copy = sim.DuplicateEvent(live, 10);
  ASSERT_NE(copy, 0u);
  EXPECT_EQ(sim.Run(), 2u);
  EXPECT_EQ(fired_at, (std::vector<TimePoint>{200, 210}));
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sim.Schedule(10, recurse);
  };
  sim.Schedule(0, recurse);
  sim.Run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), 90);
}

TEST(Simulator, RunUntilStopsEarly) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.Schedule(i * 100, [&] { ++count; });
  }
  sim.Run(/*until=*/450);
  EXPECT_EQ(count, 4);
  sim.Run();
  EXPECT_EQ(count, 10);
}

TEST(Simulator, PastDeadlineClampsToNow) {
  Simulator sim;
  sim.Schedule(100, [&] {
    TimePoint fired_at = -1;
    sim.ScheduleAt(50, [&, start = sim.now()] { fired_at = sim.now(); });
    (void)fired_at;
  });
  sim.Run();  // must not hang or go backwards
  EXPECT_EQ(sim.now(), 100);
}

TEST(Timer, RearmAndCancel) {
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&] { ++fired; });
  timer.SetIn(100);
  timer.SetIn(200);  // re-arm replaces the old deadline
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 200);

  timer.SetIn(100);
  timer.Cancel();
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(Timer, ArmedStateTracksLifecycle) {
  Simulator sim;
  Timer timer(sim, [] {});
  EXPECT_FALSE(timer.armed());
  timer.SetIn(10);
  EXPECT_TRUE(timer.armed());
  EXPECT_EQ(timer.deadline(), 10);
  sim.Run();
  EXPECT_FALSE(timer.armed());
}

TEST(Timer, InterleavesWithOtherEventsById) {
  Simulator sim;
  std::vector<int> order;
  Timer t1(sim, [&] { order.push_back(1); });
  t1.SetAt(100);  // id 1
  sim.ScheduleAt(100, [&] { order.push_back(2); });  // id 2
  Timer t3(sim, [&] { order.push_back(3); });
  t3.SetAt(100);  // id 3
  sim.ScheduleAt(50, [&] { order.push_back(0); });  // id 4, earlier time
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Timer, ReArmConsumesOneIdPerArm) {
  // A timer re-armed n times consumes exactly n ids, as cancelling and
  // scheduling anew would; the byte-identity of digests and qlogs
  // depends on that id budget.
  Simulator sim;
  Timer timer(sim, [] {});
  timer.SetAt(10);
  timer.SetAt(20);
  timer.SetAt(30);                                  // ids 1, 2, 3
  const auto id = sim.ScheduleAt(40, [] {});        // must be id 4
  EXPECT_EQ(id, 4u);
  sim.Run();
}

TEST(Timer, ReArmFromInsideCallback) {
  // Classic periodic timer: the callback re-arms its own Timer. The
  // Simulator frees the event before invoking the callback, so the
  // re-arm schedules a fresh one.
  Simulator sim;
  int ticks = 0;
  Timer periodic(sim, [&] {
    ++ticks;
    if (ticks < 5) periodic.SetIn(1000);
  });
  periodic.SetIn(1000);
  sim.Run();
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(sim.now(), 5000);
}

TEST(Timer, CancelByEventId) {
  Simulator sim;
  bool fired = false;
  Timer timer(sim, [&] { fired = true; });
  timer.SetAt(100);
  // The arm consumed id 1; Simulator::Cancel must find the timer by it.
  sim.Cancel(1);
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(timer.armed());
}

TEST(Timer, PendingEventsListsTimers) {
  Simulator sim;
  Timer timer(sim, [] {});
  timer.SetAt(500);                                    // id 1
  sim.ScheduleAt(300, [] {}, EventKind::kDelivery, 7); // id 2
  const auto pending = sim.PendingEvents();
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].id, 2u);
  EXPECT_EQ(pending[0].when, 300);
  EXPECT_EQ(pending[0].kind, EventKind::kDelivery);
  EXPECT_EQ(pending[1].id, 1u);
  EXPECT_EQ(pending[1].when, 500);
  EXPECT_EQ(pending[1].kind, EventKind::kTimer);
  EXPECT_EQ(pending[1].scope, 0u);
}

TEST(Timer, FireEventOutOfOrderFiresLate) {
  // Explorer semantics: firing the *later* timer first advances time to
  // its deadline; the earlier timer then fires "late" at that same time.
  Simulator sim;
  std::vector<std::pair<int, TimePoint>> fired;
  Timer early(sim, [&] { fired.push_back({1, sim.now()}); });
  Timer late(sim, [&] { fired.push_back({2, sim.now()}); });
  early.SetAt(100);  // id 1
  late.SetAt(900);   // id 2
  ASSERT_TRUE(sim.FireEvent(2));
  EXPECT_FALSE(late.armed());
  EXPECT_TRUE(early.armed());
  ASSERT_TRUE(sim.FireEvent(1));
  EXPECT_EQ(fired, (std::vector<std::pair<int, TimePoint>>{{2, 900},
                                                           {1, 900}}));
  EXPECT_TRUE(sim.empty());
  // Unknown ids are rejected.
  EXPECT_FALSE(sim.FireEvent(99));
}

TEST(Timer, DuplicateEventClonesTimer) {
  Simulator sim;
  int fires = 0;
  Timer timer(sim, [&] { ++fires; });
  timer.SetAt(100);  // id 1
  const auto copy = sim.DuplicateEvent(1, 50);
  EXPECT_NE(copy, 0u);
  sim.Run();
  // Original at 100 and the clone at 150 both invoke the callback.
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(sim.now(), 150);
}

TEST(Timer, DeadlineTracksArmedState) {
  Simulator sim;
  Timer timer(sim, [] {});
  EXPECT_EQ(timer.deadline(), kTimeInfinite);
  timer.SetAt(250);
  EXPECT_TRUE(timer.armed());
  EXPECT_EQ(timer.deadline(), 250);
  sim.Run();
  // After firing the timer reports disarmed/infinite.
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(timer.deadline(), kTimeInfinite);
  timer.SetIn(100);
  timer.Cancel();
  EXPECT_EQ(timer.deadline(), kTimeInfinite);
  EXPECT_FALSE(timer.armed());
}

TEST(Timer, ManyTimersFireInDeadlineOrder) {
  // End-to-end: hundreds of timers with deadlines spread over five
  // decades fire in exact deadline order under Run().
  Simulator sim;
  Rng rng(42);
  std::vector<std::unique_ptr<Timer>> timers;
  std::vector<TimePoint> fired;
  std::vector<TimePoint> expected;
  for (int i = 0; i < 400; ++i) {
    const auto when =
        static_cast<TimePoint>(rng.NextU64() % 100'000'000);  // up to 100 s
    expected.push_back(when);
    timers.push_back(std::make_unique<Timer>(
        sim, [&fired, &sim] { fired.push_back(sim.now()); }));
    timers.back()->SetAt(when);
  }
  sim.Run();
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(fired, expected);
}

// ---------------------------------------------------------------------------
// Links

LinkConfig MakeLink(double mbps, Duration prop, ByteCount queue = ByteCount{1 << 20},
                    double loss = 0.0) {
  LinkConfig c;
  c.capacity_mbps = mbps;
  c.propagation_delay = prop;
  c.queue_capacity_bytes = queue;
  c.random_loss_rate = loss;
  c.per_packet_overhead = ByteCount{0};  // keep the math exact for tests
  return c;
}

TEST(Link, DeliveryDelayIsTransmissionPlusPropagation) {
  Simulator sim;
  Link link(sim, MakeLink(8.0, 10 * kMillisecond), Rng(1));
  TimePoint delivered_at = -1;
  link.SetDeliveryHandler([&](Datagram&&) { delivered_at = sim.now(); });
  // 1000 bytes at 8 Mbps = 1 ms serialization + 10 ms propagation.
  link.Transmit({{}, {}, std::vector<std::uint8_t>(1000)});
  sim.Run();
  EXPECT_EQ(delivered_at, 11 * kMillisecond);
}

TEST(Link, BackToBackPacketsSerialize) {
  Simulator sim;
  Link link(sim, MakeLink(8.0, 0), Rng(1));
  std::vector<TimePoint> deliveries;
  link.SetDeliveryHandler([&](Datagram&&) { deliveries.push_back(sim.now()); });
  for (int i = 0; i < 3; ++i) {
    link.Transmit({{}, {}, std::vector<std::uint8_t>(1000)});
  }
  sim.Run();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0], 1 * kMillisecond);
  EXPECT_EQ(deliveries[1], 2 * kMillisecond);
  EXPECT_EQ(deliveries[2], 3 * kMillisecond);
}

TEST(Link, QueueOverflowDropsTail) {
  Simulator sim;
  // Queue of 3000 bytes: two 1000-byte packets queue (one transmitting,
  // one waiting), subsequent ones drop until space frees.
  Link link(sim, MakeLink(8.0, 0, /*queue=*/ByteCount{3000}), Rng(1));
  int delivered = 0;
  link.SetDeliveryHandler([&](Datagram&&) { ++delivered; });
  for (int i = 0; i < 10; ++i) {
    link.Transmit({{}, {}, std::vector<std::uint8_t>(1000)});
  }
  sim.Run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(link.stats().dropped_queue_full, 7u);
  EXPECT_EQ(link.stats().offered, 10u);
}

TEST(Link, QueueDrainsOverTime) {
  Simulator sim;
  Link link(sim, MakeLink(8.0, 0, /*queue=*/ByteCount{3000}), Rng(1));
  int delivered = 0;
  link.SetDeliveryHandler([&](Datagram&&) { ++delivered; });
  // Offer one packet per 2 ms — well under capacity; nothing must drop.
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(i * 2 * kMillisecond, [&link] {
      link.Transmit({{}, {}, std::vector<std::uint8_t>(1000)});
    });
  }
  sim.Run();
  EXPECT_EQ(delivered, 10);
  EXPECT_EQ(link.stats().dropped_queue_full, 0u);
}

TEST(Link, RandomLossRateIsApplied) {
  Simulator sim;
  Link link(sim, MakeLink(1000.0, 0, ByteCount{1 << 24}, /*loss=*/0.3), Rng(5));
  int delivered = 0;
  link.SetDeliveryHandler([&](Datagram&&) { ++delivered; });
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sim.Schedule(i * 20, [&link] {
      link.Transmit({{}, {}, std::vector<std::uint8_t>(100)});
    });
  }
  sim.Run();
  EXPECT_NEAR(static_cast<double>(delivered) / n, 0.7, 0.02);
  EXPECT_NEAR(static_cast<double>(link.stats().dropped_random) / n, 0.3,
              0.02);
}

TEST(Link, LossRateChangeMidRunTakesEffect) {
  Simulator sim;
  Link link(sim, MakeLink(1000.0, 0), Rng(5));
  int delivered = 0;
  link.SetDeliveryHandler([&](Datagram&&) { ++delivered; });
  link.Transmit({{}, {}, std::vector<std::uint8_t>(100)});
  sim.Run();
  EXPECT_EQ(delivered, 1);
  link.SetRandomLossRate(1.0);  // the handover scenario's "path dies"
  for (int i = 0; i < 50; ++i) {
    link.Transmit({{}, {}, std::vector<std::uint8_t>(100)});
  }
  sim.Run();
  EXPECT_EQ(delivered, 1);
}

TEST(Link, PerPacketOverheadCountsOnWire) {
  Simulator sim;
  LinkConfig c = MakeLink(8.0, 0);
  c.per_packet_overhead = ByteCount{28};
  Link link(sim, c, Rng(1));
  TimePoint delivered_at = -1;
  link.SetDeliveryHandler([&](Datagram&&) { delivered_at = sim.now(); });
  link.Transmit({{}, {}, std::vector<std::uint8_t>(972)});  // 1000 on wire
  sim.Run();
  EXPECT_EQ(delivered_at, 1 * kMillisecond);
}

TEST(Link, ZeroCapacityRejected) {
  Simulator sim;
  LinkConfig c = MakeLink(0.0, 0);
  EXPECT_THROW(Link(sim, c, Rng(1)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Network routing and sockets

TEST(Network, RoutesBySourceInterface) {
  Simulator sim;
  Network net(sim, Rng(3));
  const Address a{1, 0}, b{2, 0};
  net.AddDuplexLink(a, b, MakeLink(10, kMillisecond), MakeLink(10, kMillisecond));
  auto* sa = net.CreateSocket(a);
  auto* sb = net.CreateSocket(b);
  int got_at_b = 0, got_at_a = 0;
  sb->SetReceiveHandler([&](const Datagram& d) {
    ++got_at_b;
    EXPECT_EQ(d.src, a);
  });
  sa->SetReceiveHandler([&](const Datagram&) { ++got_at_a; });
  sa->Send(b, std::vector<std::uint8_t>(100));
  sim.Run();
  EXPECT_EQ(got_at_b, 1);
  sb->Send(a, std::vector<std::uint8_t>(100));
  sim.Run();
  EXPECT_EQ(got_at_a, 1);
}

TEST(Network, UnroutableDestinationIsDropped) {
  Simulator sim;
  Network net(sim, Rng(3));
  const Address a{1, 0}, b{2, 0}, c{3, 0};
  net.AddDuplexLink(a, b, MakeLink(10, 0), MakeLink(10, 0));
  auto* sa = net.CreateSocket(a);
  sa->Send(c, std::vector<std::uint8_t>(10));  // no link a->c
  sim.Run();  // must not crash; nothing delivered
  SUCCEED();
}

TEST(Network, DoubleBindThrows) {
  Simulator sim;
  Network net(sim, Rng(3));
  net.CreateSocket({1, 0});
  EXPECT_THROW(net.CreateSocket({1, 0}), std::invalid_argument);
}

TEST(Network, RebindAfterCloseWorks) {
  Simulator sim;
  Network net(sim, Rng(3));
  net.CreateSocket({1, 0});
  net.CloseSocket({1, 0});
  EXPECT_NO_THROW(net.CreateSocket({1, 0}));
}

TEST(SimNet, DuplicatedDeliveryCarriesItsOwnBytes) {
  // The model checker's wire faults: kDup duplicates a pending delivery
  // and fires the original, kDrop cancels one. The datagram rides in the
  // event, so the copy must deliver the same bytes, not an emptied
  // buffer the original already handed on.
  Simulator sim;
  Network net(sim, Rng(3));
  const Address a{1, 0}, b{2, 0};
  net.AddDuplexLink(a, b, MakeLink(10, kMillisecond),
                    MakeLink(10, kMillisecond));
  auto* sa = net.CreateSocket(a);
  auto* sb = net.CreateSocket(b);
  std::vector<std::vector<std::uint8_t>> got;
  sb->SetReceiveHandler([&](const Datagram& d) { got.push_back(d.payload); });
  const auto next_delivery = [&sim] {
    while (true) {
      for (const auto& event : sim.PendingEvents()) {
        if (event.kind == EventKind::kDelivery) return event.id;
      }
      if (!sim.RunOne()) return Simulator::EventId{0};
    }
  };

  const std::vector<std::uint8_t> bytes = {1, 2, 3, 4, 5};
  sa->Send(b, bytes);
  sa->Send(b, std::vector<std::uint8_t>{9, 9});
  const Simulator::EventId original = next_delivery();
  ASSERT_NE(original, 0u);
  const Simulator::EventId copy = sim.DuplicateEvent(original, 0);
  ASSERT_NE(copy, 0u);
  ASSERT_TRUE(sim.FireEvent(original));
  ASSERT_TRUE(sim.FireEvent(copy));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], bytes);
  EXPECT_EQ(got[1], bytes);

  // The second datagram's delivery is cancelled: nothing arrives.
  const Simulator::EventId dropped = next_delivery();
  ASSERT_NE(dropped, 0u);
  sim.Cancel(dropped);
  sim.Run();
  EXPECT_EQ(got.size(), 2u);
}

// ---------------------------------------------------------------------------
// Topology

TEST(Topology, QueueCapacityFromQueuingDelay) {
  // 8 Mbps * 100 ms = 100 KB of buffer.
  EXPECT_EQ(QueueCapacityBytes(8.0, 100 * kMillisecond), 100'000u);
}

TEST(Topology, BuildsTwoDisjointDuplexPaths) {
  Simulator sim;
  Network net(sim, Rng(4));
  std::array<PathParams, 2> params;
  params[0].capacity_mbps = 10;
  params[0].rtt = 40 * kMillisecond;
  params[1].capacity_mbps = 2;
  params[1].rtt = 100 * kMillisecond;
  auto topo = BuildTwoPathTopology(net, params);

  // Propagation is RTT/2 per direction.
  EXPECT_EQ(topo.forward[0]->config().propagation_delay, 20 * kMillisecond);
  EXPECT_EQ(topo.backward[1]->config().propagation_delay, 50 * kMillisecond);

  // End-to-end echo over each path.
  for (int i = 0; i < 2; ++i) {
    auto* cs = net.CreateSocket(topo.client_addr[i]);
    auto* ss = net.CreateSocket(topo.server_addr[i]);
    bool echoed = false;
    ss->SetReceiveHandler([&, ss](const Datagram& d) {
      ss->Send(d.src, std::vector<std::uint8_t>(10));
    });
    cs->SetReceiveHandler([&](const Datagram&) { echoed = true; });
    cs->Send(topo.server_addr[i], std::vector<std::uint8_t>(10));
    sim.Run();
    EXPECT_TRUE(echoed) << "path " << i;
  }
}


TEST(Link, JitterBoundsAndReorders) {
  Simulator sim;
  LinkConfig c = MakeLink(1000.0, 10 * kMillisecond);
  c.jitter = 5 * kMillisecond;
  Link link(sim, c, Rng(9));
  std::vector<int> arrival_order;
  std::vector<TimePoint> send_times;
  int next_tag = 0;
  link.SetDeliveryHandler([&](Datagram&& d) {
    arrival_order.push_back(d.payload[0]);
  });
  // 50 small packets in a burst: with 5 ms of jitter over ~0.8 us
  // serialization gaps, reordering is certain.
  for (int i = 0; i < 50; ++i) {
    link.Transmit({{}, {}, std::vector<std::uint8_t>{
                               static_cast<std::uint8_t>(next_tag++)}});
    send_times.push_back(sim.now());
  }
  sim.Run();
  ASSERT_EQ(arrival_order.size(), 50u);
  bool reordered = false;
  for (std::size_t i = 1; i < arrival_order.size(); ++i) {
    if (arrival_order[i] < arrival_order[i - 1]) reordered = true;
  }
  EXPECT_TRUE(reordered);
  // Everything still arrives within base + jitter + serialization time.
  EXPECT_LE(sim.now(), 10 * kMillisecond + 5 * kMillisecond +
                           1 * kMillisecond);
}

TEST(Link, DownLinkEatsEverythingUntilUp) {
  Simulator sim;
  Link link(sim, MakeLink(8.0, 1 * kMillisecond), Rng(1));
  int delivered = 0;
  link.SetDeliveryHandler([&](Datagram&&) { ++delivered; });

  link.SetDown(true);
  for (int i = 0; i < 5; ++i) {
    link.Transmit({{}, {}, std::vector<std::uint8_t>(100)});
  }
  sim.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(link.stats().dropped_link_down, 5u);

  link.SetDown(false);
  link.Transmit({{}, {}, std::vector<std::uint8_t>(100)});
  sim.Run();
  EXPECT_EQ(delivered, 1);
}

TEST(Link, DownAppliedMidSerializationEatsPacket) {
  // A packet still on the serializer when the link goes down is lost
  // with it (the wire went dark), exactly like rate-1.0 random loss.
  // 1000 B at 0.8 Mbps = 10 ms serialization; the cut lands at 2 ms.
  Simulator sim;
  Link link(sim, MakeLink(0.8, 10 * kMillisecond), Rng(1));
  int delivered = 0;
  link.SetDeliveryHandler([&](Datagram&&) { ++delivered; });
  link.Transmit({{}, {}, std::vector<std::uint8_t>(1000)});
  sim.Schedule(2 * kMillisecond, [&] { link.SetDown(true); });
  sim.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(link.stats().dropped_link_down, 1u);
}

TEST(Link, GilbertElliottBurstsLoss) {
  // With sticky states (rare transitions) and loss only in the bad
  // state, drops must arrive in runs, not independently.
  Simulator sim;
  LinkConfig config = MakeLink(1000.0, 0);
  config.gilbert_elliott.enabled = true;
  config.gilbert_elliott.good_to_bad = 0.02;
  config.gilbert_elliott.bad_to_good = 0.1;
  config.gilbert_elliott.loss_good = 0.0;
  config.gilbert_elliott.loss_bad = 1.0;
  Link link(sim, config, Rng(7));
  std::vector<bool> outcome;  // true = delivered
  int sent = 0;
  link.SetDeliveryHandler([&](Datagram&& d) {
    outcome[d.payload[0]] = true;
  });
  for (int i = 0; i < 200; ++i) {
    outcome.push_back(false);
    link.Transmit({{}, {}, std::vector<std::uint8_t>{
                               static_cast<std::uint8_t>(sent++)}});
    sim.Run();
  }
  int losses = 0;
  int loss_runs = 0;
  for (std::size_t i = 0; i < outcome.size(); ++i) {
    if (outcome[i]) continue;
    ++losses;
    if (i == 0 || outcome[i - 1]) ++loss_runs;
  }
  EXPECT_GT(losses, 10);
  EXPECT_LT(losses, 190);
  // Bursty: far fewer runs than losses (independent loss at the same
  // rate would give runs ~= losses).
  EXPECT_LT(loss_runs * 2, losses);
}

TEST(Link, ApplyFaultReconfiguresCapacityAndDelay) {
  Simulator sim;
  Link link(sim, MakeLink(8.0, 10 * kMillisecond), Rng(1));
  LinkFault fault;
  fault.kind = LinkFault::Kind::kReconfigure;
  fault.capacity_mbps = 16.0;
  fault.propagation_delay = 20 * kMillisecond;
  link.ApplyFault(fault);
  EXPECT_EQ(link.config().capacity_mbps, 16.0);
  EXPECT_EQ(link.config().propagation_delay, 20 * kMillisecond);

  // Zero-valued fields leave the current configuration untouched.
  LinkFault partial;
  partial.kind = LinkFault::Kind::kReconfigure;
  partial.propagation_delay = 5 * kMillisecond;
  link.ApplyFault(partial);
  EXPECT_EQ(link.config().capacity_mbps, 16.0);
  EXPECT_EQ(link.config().propagation_delay, 5 * kMillisecond);
}

TEST(Topology, ScheduledFaultsApplyToBothDirectionsAndNotify) {
  Simulator sim;
  Network net(sim, Rng(4));
  std::array<PathParams, 2> params;
  auto topo = BuildTwoPathTopology(net, params);

  FaultSchedule schedule;
  PathFault down;
  down.time = 10 * kMillisecond;
  down.path = 1;
  down.kind = LinkFault::Kind::kDown;
  PathFault up = down;
  up.time = 30 * kMillisecond;
  up.kind = LinkFault::Kind::kUp;
  schedule = {down, up};

  std::vector<std::string> observed;
  SchedulePathFaults(sim, topo, schedule, [&](const PathFault& fault) {
    observed.push_back(std::to_string(fault.path) + ":" +
                       ToString(fault.kind));
  });

  sim.Run(20 * kMillisecond);
  EXPECT_TRUE(topo.forward[1]->down());
  EXPECT_TRUE(topo.backward[1]->down());
  EXPECT_FALSE(topo.forward[0]->down());
  sim.Run(40 * kMillisecond);
  EXPECT_FALSE(topo.forward[1]->down());
  EXPECT_FALSE(topo.backward[1]->down());
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0], "1:down");
  EXPECT_EQ(observed[1], "1:up");
}

TEST(Link, ZeroJitterPreservesOrder) {
  Simulator sim;
  Link link(sim, MakeLink(1000.0, 10 * kMillisecond), Rng(9));
  std::vector<int> arrival_order;
  int next_tag = 0;
  link.SetDeliveryHandler([&](Datagram&& d) {
    arrival_order.push_back(d.payload[0]);
  });
  for (int i = 0; i < 20; ++i) {
    link.Transmit({{}, {}, std::vector<std::uint8_t>{
                               static_cast<std::uint8_t>(next_tag++)}});
  }
  sim.Run();
  for (std::size_t i = 1; i < arrival_order.size(); ++i) {
    EXPECT_GT(arrival_order[i], arrival_order[i - 1]);
  }
}


// ---------------------------------------------------------------------------
// Model-based property test: the Simulator against a naive reference.

TEST(SimulatorProperty, MatchesNaiveReferenceUnderRandomOps) {
  // Random mix of operations, executed on the real Simulator and on a
  // trivially correct reference (a list scanned for the earliest live
  // (when, seq) entry, where every schedule and every timer arm takes the
  // next seq): schedule and cancel plain events; arm a few sim::Timers
  // earlier or later while armed, cancel them, re-arm them after they
  // fired; timers that re-arm from their own callback; partial runs in
  // between. Firing orders and armed states must be identical.
  constexpr int kTimers = 3;
  constexpr int kTimerTag = 1000;
  constexpr std::size_t kNone = ~std::size_t{0};
  Rng rng(20260705);
  for (int round = 0; round < 50; ++round) {
    Simulator sim;
    struct RefEvent {
      TimePoint when;
      std::uint64_t seq;
      int tag;
      bool live = true;
    };
    std::vector<RefEvent> reference;
    TimePoint ref_now = 0;
    std::uint64_t seq = 0;
    std::vector<int> fired_real;
    std::vector<int> fired_expected;
    auto ref_schedule = [&](TimePoint when, int tag) {
      reference.push_back({std::max(when, ref_now), seq++, tag});
      return reference.size() - 1;
    };

    // Timer k re-arms itself `period` later from its callback, k times
    // in all (timer 0 never does).
    struct TimerState {
      Duration period;
      int real_rearms;
      int ref_rearms;
      std::size_t ref_pending = kNone;
    };
    std::vector<TimerState> states;
    std::vector<std::unique_ptr<Timer>> timers;
    for (int k = 0; k < kTimers; ++k) {
      const auto period = static_cast<Duration>(1 + rng.NextBounded(100));
      states.push_back({period, k, k});
    }
    for (int k = 0; k < kTimers; ++k) {
      timers.push_back(std::make_unique<Timer>(sim, [&, k] {
        fired_real.push_back(kTimerTag + k);
        if (states[k].real_rearms > 0) {
          --states[k].real_rearms;
          timers[k]->SetIn(states[k].period);
        }
      }));
    }
    auto ref_cancel_timer = [&](int k) {
      if (states[k].ref_pending != kNone) {
        reference[states[k].ref_pending].live = false;
      }
      states[k].ref_pending = kNone;
    };
    auto ref_arm = [&](int k, TimePoint when) {
      ref_cancel_timer(k);
      states[k].ref_pending = ref_schedule(when, kTimerTag + k);
    };
    auto ref_run = [&](TimePoint until) {
      for (;;) {
        std::size_t next = kNone;
        for (std::size_t i = 0; i < reference.size(); ++i) {
          const RefEvent& e = reference[i];
          if (!e.live) continue;
          if (next == kNone || e.when < reference[next].when ||
              (e.when == reference[next].when && e.seq < reference[next].seq)) {
            next = i;
          }
        }
        if (next == kNone || reference[next].when > until) return;
        reference[next].live = false;
        ref_now = reference[next].when;
        const int tag = reference[next].tag;
        fired_expected.push_back(tag);
        if (tag < kTimerTag) continue;
        const int k = tag - kTimerTag;
        states[k].ref_pending = kNone;
        if (states[k].ref_rearms > 0) {
          --states[k].ref_rearms;
          ref_arm(k, ref_now + states[k].period);
        }
      }
    };

    std::vector<Simulator::EventId> ids;
    std::vector<std::size_t> event_refs;
    const int ops = 60;
    for (int op = 0; op < ops; ++op) {
      const TimePoint when = static_cast<TimePoint>(rng.NextBounded(500));
      const double dice = rng.NextDouble();
      if (dice < 0.15 && !ids.empty()) {
        // Cancel a random still-known event (possibly already cancelled
        // or fired — must be harmless in both).
        const std::size_t pick = rng.NextBounded(ids.size());
        sim.Cancel(ids[pick]);
        reference[event_refs[pick]].live = false;
      } else if (dice < 0.45) {
        const int k = static_cast<int>(rng.NextBounded(kTimers));
        timers[k]->SetAt(when);
        ref_arm(k, when);
      } else if (dice < 0.55) {
        const int k = static_cast<int>(rng.NextBounded(kTimers));
        timers[k]->Cancel();
        ref_cancel_timer(k);
      } else if (dice < 0.65) {
        const TimePoint until =
            sim.now() + static_cast<Duration>(rng.NextBounded(100));
        sim.Run(until);
        ref_run(until);
      } else {
        const int tag = static_cast<int>(ids.size());
        ids.push_back(sim.ScheduleAt(
            when, [tag, &fired_real] { fired_real.push_back(tag); }));
        event_refs.push_back(ref_schedule(when, tag));
      }
      for (int k = 0; k < kTimers; ++k) {
        ASSERT_EQ(timers[k]->armed(), states[k].ref_pending != kNone)
            << "round " << round << " op " << op << " timer " << k;
      }
    }
    sim.Run();
    ref_run(kTimeInfinite);
    ASSERT_EQ(fired_real, fired_expected) << "round " << round;
    EXPECT_TRUE(sim.empty());
  }
}

TEST(SimulatorProperty, CallbackSchedulingDuringRunIsSound) {
  // Events scheduled from within callbacks (including at the current
  // time) run, in order, and never in the past.
  Simulator sim;
  Rng rng(7);
  int executed = 0;
  TimePoint last = -1;
  std::function<void(int)> chain = [&](int depth) {
    ++executed;
    EXPECT_GE(sim.now(), last);
    last = sim.now();
    if (depth > 0) {
      const Duration d1 = static_cast<Duration>(rng.NextBounded(20));
      const Duration d2 = static_cast<Duration>(rng.NextBounded(20));
      sim.Schedule(d1, [&chain, depth] { chain(depth - 1); });
      sim.Schedule(d2, [&chain, depth] { chain(depth - 1); });
    }
  };
  sim.Schedule(0, [&chain] { chain(6); });
  sim.Run();
  EXPECT_EQ(executed, (1 << 7) - 1);  // full binary tree of depth 6
}

}  // namespace
}  // namespace mpq::sim
