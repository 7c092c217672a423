// Tests for Latch / Channel / Resource: wakeup ordering, FIFO fairness and
// the queueing behaviour the offload-contention model depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/common/time.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/sync.hpp"
#include "src/sim/task.hpp"

// Count every host allocation in this binary, so a test can show that
// building a primitive touches no allocator. The deletes stay out of line:
// inlined into this file's callers, GCC pairs its builtin operator new
// with the free() and warns (-Wmismatched-new-delete).
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pd::sim {
namespace {

using namespace pd::time_literals;

std::uint64_t heap_allocs() { return g_heap_allocs.load(std::memory_order_relaxed); }

TEST(Latch, WaitersResumeAfterTrigger) {
  Engine e;
  Latch latch(e);
  int resumed = 0;
  for (int i = 0; i < 3; ++i) {
    spawn(e, [](Latch& l, int& n) -> Task<> {
      co_await l.wait();
      ++n;
    }(latch, resumed));
  }
  e.schedule_after(5_ns, [&] { latch.trigger(); });
  e.run();
  EXPECT_EQ(resumed, 3);
}

TEST(Latch, WaitAfterTriggerIsImmediate) {
  Engine e;
  Latch latch(e);
  latch.trigger();
  Time when = -1;
  spawn(e, [](Engine& eng, Latch& l, Time& out) -> Task<> {
    co_await eng.delay(3_ns);
    co_await l.wait();
    out = eng.now();
  }(e, latch, when));
  e.run();
  EXPECT_EQ(when, 3_ns);
}

TEST(Latch, DoubleTriggerIsIdempotent) {
  Engine e;
  Latch latch(e);
  latch.trigger();
  latch.trigger();
  EXPECT_TRUE(latch.triggered());
}

TEST(Channel, SendThenRecv) {
  Engine e;
  Channel<int> ch(e);
  ch.send(7);
  int got = 0;
  spawn(e, [](Channel<int>& c, int& out) -> Task<> { out = co_await c.recv(); }(ch, got));
  e.run();
  EXPECT_EQ(got, 7);
}

TEST(Channel, RecvBlocksUntilSend) {
  Engine e;
  Channel<int> ch(e);
  Time when = -1;
  int got = 0;
  spawn(e, [](Engine& eng, Channel<int>& c, Time& t, int& out) -> Task<> {
    out = co_await c.recv();
    t = eng.now();
  }(e, ch, when, got));
  e.schedule_after(9_ns, [&] { ch.send(5); });
  e.run();
  EXPECT_EQ(got, 5);
  EXPECT_EQ(when, 9_ns);
}

TEST(Channel, FifoAcrossMultipleReceivers) {
  Engine e;
  Channel<int> ch(e);
  std::vector<std::pair<int, int>> got;  // (receiver, item)
  for (int r = 0; r < 3; ++r) {
    spawn(e, [](Channel<int>& c, int rid, std::vector<std::pair<int, int>>& out) -> Task<> {
      const int item = co_await c.recv();
      out.emplace_back(rid, item);
    }(ch, r, got));
  }
  e.schedule_after(1_ns, [&] {
    ch.send(100);
    ch.send(200);
    ch.send(300);
  });
  e.run();
  ASSERT_EQ(got.size(), 3u);
  // Receivers arrived 0,1,2 and items are handed out in that order.
  EXPECT_EQ(got[0], std::make_pair(0, 100));
  EXPECT_EQ(got[1], std::make_pair(1, 200));
  EXPECT_EQ(got[2], std::make_pair(2, 300));
}

TEST(Channel, BuffersWhenNoReceiver) {
  Engine e;
  Channel<int> ch(e);
  for (int i = 0; i < 5; ++i) ch.send(i);
  EXPECT_EQ(ch.pending(), 5u);
  std::vector<int> got;
  spawn(e, [](Channel<int>& c, std::vector<int>& out) -> Task<> {
    for (int i = 0; i < 5; ++i) out.push_back(co_await c.recv());
  }(ch, got));
  e.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Channel, InterleavedTrafficKeepsFifoOrder) {
  // 1,200 items through one channel with a receiver taking one per 2 ns.
  // In bursts (one item per ns) the sender runs ahead, so items buffer and
  // the queue grows and wraps; in trickles (one per 5 ns) the receiver
  // drains the backlog, then waits, and sends go straight to it.
  constexpr int kItems = 1200;
  Engine e;
  Channel<int> ch(e);
  std::vector<int> got;
  std::size_t max_pending = 0;
  int handed_to_waiter = 0;
  spawn(e, [](Engine& eng, Channel<int>& c, std::vector<int>& out) -> Task<> {
    for (int i = 0; i < kItems; ++i) {
      out.push_back(co_await c.recv());
      co_await eng.delay(2_ns);
    }
  }(e, ch, got));
  spawn(e, [](Engine& eng, Channel<int>& c, std::size_t& most, int& direct) -> Task<> {
    for (int i = 0; i < kItems; ++i) {
      if (c.waiting_receivers() > 0) ++direct;
      c.send(i);
      most = std::max(most, c.pending());
      co_await eng.delay((i / 100) % 2 == 0 ? 1_ns : 5_ns);
    }
  }(e, ch, max_pending, handed_to_waiter));
  e.run();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) ASSERT_EQ(got[static_cast<std::size_t>(i)], i) << "at " << i;
  EXPECT_GT(max_pending, 32u) << "the sender never ran far ahead";
  EXPECT_GT(handed_to_waiter, 100) << "the receiver never waited";
  EXPECT_EQ(ch.pending(), 0u);
}

TEST(SyncQueues, ConstructionAllocatesNothing) {
  // An IKC request's reply doorbell and an uncontended spin-lock never
  // queue anything: building them must not touch the host heap.
  Engine e;
  const std::uint64_t before = heap_allocs();
  {
    Channel<int> ch(e);
    Resource res(e, 4);
    EXPECT_EQ(ch.pending(), 0u);
    EXPECT_EQ(res.queue_length(), 0u);
  }
  EXPECT_EQ(heap_allocs(), before);
  // The counter sees the queue's first block once something is queued.
  Channel<int> ch(e);
  ch.send(1);
  EXPECT_GT(heap_allocs(), before);
}

TEST(Resource, ImmediateWhenAvailable) {
  Engine e;
  Resource res(e, 2);
  Time when = -1;
  spawn(e, [](Engine& eng, Resource& r, Time& t) -> Task<> {
    co_await r.acquire();
    t = eng.now();
    r.release();
  }(e, res, when));
  e.run();
  EXPECT_EQ(when, 0);
}

TEST(Resource, ContentionSerializes) {
  // Four 10 ns jobs on one server: completions at 10, 20, 30, 40 ns.
  Engine e;
  Resource server(e, 1);
  std::vector<Time> done;
  for (int i = 0; i < 4; ++i) {
    spawn(e, [](Engine& eng, Resource& r, std::vector<Time>& out) -> Task<> {
      co_await r.acquire();
      co_await eng.delay(10_ns);
      r.release();
      out.push_back(eng.now());
    }(e, server, done));
  }
  e.run();
  ASSERT_EQ(done.size(), 4u);
  EXPECT_EQ(done[0], 10_ns);
  EXPECT_EQ(done[1], 20_ns);
  EXPECT_EQ(done[2], 30_ns);
  EXPECT_EQ(done[3], 40_ns);
}

TEST(Resource, ParallelismMatchesCapacity) {
  // Four 10 ns jobs on two servers: pairs complete at 10 and 20 ns.
  Engine e;
  Resource servers(e, 2);
  std::vector<Time> done;
  for (int i = 0; i < 4; ++i) {
    spawn(e, [](Engine& eng, Resource& r, std::vector<Time>& out) -> Task<> {
      co_await r.acquire();
      co_await eng.delay(10_ns);
      r.release();
      out.push_back(eng.now());
    }(e, servers, done));
  }
  e.run();
  ASSERT_EQ(done.size(), 4u);
  EXPECT_EQ(done[0], 10_ns);
  EXPECT_EQ(done[1], 10_ns);
  EXPECT_EQ(done[2], 20_ns);
  EXPECT_EQ(done[3], 20_ns);
}

TEST(Resource, FifoNoBarging) {
  Engine e;
  Resource res(e, 1);
  std::vector<int> order;
  // Occupy the resource, then queue waiters 0..2; a later small request
  // must not overtake them.
  spawn(e, [](Engine& eng, Resource& r, std::vector<int>& out) -> Task<> {
    co_await r.acquire();
    co_await eng.delay(50_ns);
    r.release();
    out.push_back(-1);
  }(e, res, order));
  for (int i = 0; i < 3; ++i) {
    spawn(e, [](Engine& eng, Resource& r, int id, std::vector<int>& out) -> Task<> {
      co_await eng.delay(static_cast<Dur>(id + 1));
      co_await r.acquire();
      out.push_back(id);
      r.release();
    }(e, res, i, order));
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2}));
}

TEST(Resource, HoldReleasesOnScopeExit) {
  Engine e;
  Resource res(e, 1);
  Time second_done = -1;
  spawn(e, [](Engine& eng, Resource& r) -> Task<> {
    co_await r.acquire();
    {
      Resource::Hold hold(r);
      co_await eng.delay(10_ns);
    }
    co_return;
  }(e, res));
  spawn(e, [](Engine& eng, Resource& r, Time& out) -> Task<> {
    co_await eng.delay(1_ns);
    co_await r.acquire();
    out = eng.now();
    r.release();
  }(e, res, second_done));
  e.run();
  EXPECT_EQ(second_done, 10_ns);
}

TEST(Resource, AcquireMultipleUnits) {
  Engine e;
  Resource res(e, 4);
  std::vector<int> order;
  spawn(e, [](Engine& eng, Resource& r, std::vector<int>& out) -> Task<> {
    co_await r.acquire(3);
    co_await eng.delay(10_ns);
    r.release(3);
    out.push_back(0);
  }(e, res, order));
  spawn(e, [](Engine& eng, Resource& r, std::vector<int>& out) -> Task<> {
    co_await eng.delay(1_ns);
    co_await r.acquire(2);  // only 1 free until t=10
    out.push_back(1);
    r.release(2);
  }(e, res, order));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

}  // namespace
}  // namespace pd::sim
