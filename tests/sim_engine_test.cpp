// Unit tests for the discrete-event engine: ordering, tie-breaking,
// time advancement, run_until semantics.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/time.hpp"
#include "src/sim/engine.hpp"

namespace pd::sim {
namespace {

using namespace pd::time_literals;

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_TRUE(e.idle());
}

TEST(Engine, EventsRunInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_after(30_ns, [&] { order.push_back(3); });
  e.schedule_after(10_ns, [&] { order.push_back(1); });
  e.schedule_after(20_ns, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30_ns);
}

TEST(Engine, TiesBreakInInsertionOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) e.schedule_at(5_ns, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, NestedSchedulingFromHandler) {
  Engine e;
  std::vector<Time> times;
  e.schedule_after(10_ns, [&] {
    times.push_back(e.now());
    e.schedule_after(5_ns, [&] { times.push_back(e.now()); });
  });
  e.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], 10_ns);
  EXPECT_EQ(times[1], 15_ns);
}

TEST(Engine, ZeroDelayRunsAtSameTimeAfterQueued) {
  Engine e;
  std::vector<int> order;
  e.schedule_after(1_ns, [&] {
    e.schedule_after(0, [&] { order.push_back(2); });
    order.push_back(1);
  });
  e.schedule_after(1_ns, [&] { order.push_back(3); });
  e.run();
  // The zero-delay event lands behind the already-queued same-time event.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int fired = 0;
  e.schedule_after(10_ns, [&] { ++fired; });
  e.schedule_after(20_ns, [&] { ++fired; });
  e.run_until(15_ns);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(e.idle());
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunUntilAdvancesClockWhenQueueDrains) {
  Engine e;
  e.schedule_after(3_ns, [] {});
  e.run_until(100_ns);
  EXPECT_EQ(e.now(), 100_ns);
}

TEST(Engine, CountsEvents) {
  Engine e;
  for (int i = 0; i < 17; ++i) e.schedule_after(i, [] {});
  e.run();
  EXPECT_EQ(e.events_processed(), 17u);
}

TEST(Engine, StepReturnsFalseWhenIdle) {
  Engine e;
  EXPECT_FALSE(e.step());
  e.schedule_after(1_ns, [] {});
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(Engine, DrainsMoveOnlyCallbacks) {
  // ISSUE-6 regression: the old scheduler moved callbacks out of
  // priority_queue::top() via const_cast and required copyability. The
  // event nodes must take (and run) move-only callables directly.
  Engine e;
  std::vector<int> order;
  auto small = std::make_unique<int>(1);
  e.schedule_after(2_ns, [&order, p = std::move(small)] { order.push_back(*p); });
  // A payload bigger than the inline buffer exercises the boxed path.
  struct Big {
    std::unique_ptr<int> p;
    char pad[200];
  };
  Big big{std::make_unique<int>(2), {}};
  e.schedule_after(1_ns, [&order, b = std::move(big)] { order.push_back(*b.p); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(e.stats().boxed_callbacks, 1u);
}

TEST(Engine, DestructorDropsUnrunPayloadsWithoutLeaking) {
  // run_until can leave events queued; their payloads (inline and boxed)
  // must be destroyed — not run — when the engine dies.
  auto ran = std::make_shared<int>(0);
  {
    Engine e;
    e.schedule_after(10_ns, [ran, p = std::make_unique<int>(1)] { *ran += *p; });
    struct Big {
      std::shared_ptr<int> ran;
      std::unique_ptr<int> p;
      char pad[200];
    };
    e.schedule_after(20_ns, [b = Big{ran, std::make_unique<int>(1), {}}] { *b.ran += *b.p; });
    e.schedule_after(1'000'000_us, [ran] { *ran += 100; });  // parked in overflow
    e.run_until(5_ns);
    EXPECT_EQ(*ran, 0);
  }
  EXPECT_EQ(ran.use_count(), 1) << "queued payloads must be destroyed with the engine";
  EXPECT_EQ(*ran, 0) << "dropped payloads must not run";
}

TEST(Engine, FarFutureEventsComeBackInOrder) {
  // Events far beyond the calendar horizon detour through the overflow
  // heap; they must still fire in (t, seq) order once the clock gets there.
  Engine e;
  std::vector<int> order;
  e.schedule_at(from_ms(5'000), [&] { order.push_back(3); });
  e.schedule_at(from_ms(50), [&] { order.push_back(2); });
  e.schedule_at(from_ms(5'000), [&] { order.push_back(4); });  // tie with 3
  e.schedule_after(10_ns, [&] { order.push_back(1); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_GT(e.stats().overflow_parked, 0u);
  EXPECT_EQ(e.now(), from_ms(5'000));
}

TEST(Engine, BackwardScheduleAfterRebaseIsAccepted) {
  // After the calendar re-anchors on a far-future event (a run_until that
  // merely peeks past its deadline), a new event with an earlier — but
  // still >= now — time must be accepted and ordered first: the rebase
  // must not strand the near end of the new year.
  Engine e;
  std::vector<int> order;
  e.schedule_at(from_ms(9'000), [&] { order.push_back(2); });
  e.run_until(1_ns);  // peeking rebases the calendar onto the far-future year
  EXPECT_EQ(e.now(), 0);
  e.schedule_at(5_ns, [&] { order.push_back(1); });  // far below the new base
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(e.now(), from_ms(9'000));
}

TEST(Engine, WatchdogTimersDoNotInflateBuckets) {
  // IKC arms ms-scale deadline watchdogs beside ns-spaced offload traffic.
  // The watchdogs dominate the pending population, but the bucket width
  // must follow the events at the head of the queue: sized from the whole
  // population, one bucket swallows every stream event and each
  // out-of-order insert walks most of them. Both arming orders must hold,
  // including watchdogs armed before any traffic, when every resize so far
  // saw only timers at the head.
  struct Rig {
    Engine e;
    std::uint64_t rng = 0x9E3779B97F4A7C15ull;
    Time end = from_ms(12);
    Time last = 0;
    bool in_order = true;
    std::uint64_t draw() {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    }
    bool fire() {
      in_order = in_order && e.now() >= last;
      last = e.now();
      return e.now() < end;
    }
    void arm_watchdog() {
      e.schedule_after(from_ms(2) + static_cast<Dur>(draw() % static_cast<std::uint64_t>(from_ms(8))),
                       [this] {
                         if (fire()) arm_watchdog();
                       });
    }
    void stream() {
      // 1-4 us on a 100 ns grid, so the 128 streams collide on shared
      // times; one step in eight is a zero-delay yield.
      const Dur d = draw() % 8 == 0 ? 0 : 1_us + static_cast<Dur>(draw() % 30) * 100_ns;
      e.schedule_after(d, [this] {
        if (fire()) stream();
      });
    }
  };
  for (const bool watchdogs_first : {true, false}) {
    SCOPED_TRACE(watchdogs_first ? "watchdogs armed first" : "streams started first");
    Rig rig;
    const auto arm_watchdogs = [&rig] {
      for (int i = 0; i < 2'000; ++i) rig.arm_watchdog();
    };
    const auto start_streams = [&rig] {
      for (int i = 0; i < 128; ++i) rig.stream();
    };
    if (watchdogs_first) {
      arm_watchdogs();
      start_streams();
    } else {
      start_streams();
      arm_watchdogs();
    }
    rig.e.run();

    const std::uint64_t steps = rig.e.stats().insert_steps;
    const std::uint64_t events = rig.e.events_processed();
    EXPECT_TRUE(rig.in_order);
    EXPECT_GT(events, 500'000u);
    EXPECT_LE(static_cast<double>(steps) / static_cast<double>(events), 4.0)
        << steps << " insert steps over " << events << " events";
  }
}

}  // namespace
}  // namespace pd::sim
