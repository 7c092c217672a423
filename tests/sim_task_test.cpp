// Tests for the coroutine Task type: lazy start, structured co_await,
// value return, exception propagation, detached spawn lifetime.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/common/time.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/sync.hpp"
#include "src/sim/task.hpp"

namespace pd::sim {
namespace {

using namespace pd::time_literals;

Task<int> answer() { co_return 42; }

Task<int> delayed_answer(Engine& e, Dur d, int v) {
  co_await e.delay(d);
  co_return v;
}

TEST(Task, AwaitReturnsValue) {
  Engine e;
  int got = 0;
  spawn(e, [](Engine&, int& out) -> Task<> { out = co_await answer(); }(e, got));
  e.run();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(e.live_tasks(), 0);
}

TEST(Task, DelayAdvancesSimTime) {
  Engine e;
  Time finished = -1;
  spawn(e, [](Engine& eng, Time& out) -> Task<> {
    co_await eng.delay(7_us);
    out = eng.now();
  }(e, finished));
  e.run();
  EXPECT_EQ(finished, 7_us);
}

TEST(Task, NestedAwaitsCompose) {
  Engine e;
  int got = 0;
  spawn(e, [](Engine& eng, int& out) -> Task<> {
    const int a = co_await delayed_answer(eng, 1_us, 10);
    const int b = co_await delayed_answer(eng, 2_us, 32);
    out = a + b;
  }(e, got));
  e.run();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(e.now(), 3_us);
}

TEST(Task, LazyUntilAwaited) {
  Engine e;
  bool ran = false;
  {
    Task<> t = [](bool& flag) -> Task<> {
      flag = true;
      co_return;
    }(ran);
    EXPECT_FALSE(ran);
    // Dropping the task without awaiting destroys the frame without running.
  }
  EXPECT_FALSE(ran);
}

TEST(Task, SpawnRunsEagerlyUntilFirstSuspend) {
  Engine e;
  std::vector<int> order;
  spawn(e, [](Engine& eng, std::vector<int>& log) -> Task<> {
    log.push_back(1);
    co_await eng.delay(1_ns);
    log.push_back(3);
  }(e, order));
  order.push_back(2);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Task, ExceptionPropagatesToAwaiter) {
  Engine e;
  bool caught = false;
  spawn(e, [](bool& flag) -> Task<> {
    auto thrower = []() -> Task<int> {
      throw std::runtime_error("boom");
      co_return 0;  // unreachable; keeps this a coroutine
    };
    try {
      (void)co_await thrower();
    } catch (const std::runtime_error&) {
      flag = true;
    }
  }(caught));
  e.run();
  EXPECT_TRUE(caught);
}

TEST(Task, ManyConcurrentSpawnsAllComplete) {
  Engine e;
  int done = 0;
  constexpr int kTasks = 1000;
  for (int i = 0; i < kTasks; ++i) {
    spawn(e, [](Engine& eng, int delay_ns, int& counter) -> Task<> {
      co_await eng.delay(delay_ns * 1_ns);
      ++counter;
    }(e, i % 37, done));
  }
  EXPECT_EQ(e.live_tasks(), kTasks);
  e.run();
  EXPECT_EQ(done, kTasks);
  EXPECT_EQ(e.live_tasks(), 0);
}

TEST(Task, DetachedFramesTrackedThroughOutOfOrderExitAndTeardown) {
  // Ten tasks finish in an order unrelated to their spawn order (so the
  // engine unlinks heads, tails and middles of its detached list), while
  // three never finish and are still suspended when the engine goes.
  struct Guard {
    int& destroyed;
    ~Guard() { ++destroyed; }
  };
  std::vector<int> finished;
  int destroyed = 0;
  {
    Engine e;
    Latch never(e);
    for (int i = 0; i < 10; ++i) {
      spawn(e, [](Engine& eng, int id, std::vector<int>& out) -> Task<> {
        co_await eng.delay(((id * 7) % 11 + 1) * 1_ns);
        out.push_back(id);
      }(e, i, finished));
      if (i % 4 == 1) {
        spawn(e, [](Latch& l, int& count) -> Task<> {
          Guard guard{count};
          co_await l.wait();
        }(never, destroyed));
      }
    }
    EXPECT_EQ(e.live_tasks(), 13);
    e.run_until(4_ns);
    EXPECT_EQ(e.live_tasks(), 9);
    e.run();
    EXPECT_EQ(finished, (std::vector<int>{0, 8, 5, 2, 7, 4, 1, 9, 6, 3}));
    EXPECT_EQ(e.live_tasks(), 3);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 3) << "the engine must destroy its suspended detached frames";
}

TEST(Task, VoidTaskAwaitable) {
  Engine e;
  int stage = 0;
  spawn(e, [](Engine& eng, int& s) -> Task<> {
    auto inner = [](Engine& en, int& st) -> Task<> {
      st = 1;
      co_await en.delay(1_ns);
      st = 2;
    };
    co_await inner(eng, s);
    EXPECT_EQ(s, 2);
    s = 3;
  }(e, stage));
  e.run();
  EXPECT_EQ(stage, 3);
}

}  // namespace
}  // namespace pd::sim
