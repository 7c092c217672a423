// IKC ring-transport unit coverage: batching, priority classes, the
// timeout → retry → degrade ladder, stall recovery via probes, per-channel
// FIFO order, ring-full handling, and depth-histogram accounting.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/ikc/transport.hpp"
#include "src/os/kernel.hpp"

namespace pd::ikc {
namespace {

/// One transport wired like an Ihk would: the LinuxKernel supplies the
/// service-CPU pool and the profiler the counters land in.
struct Harness {
  explicit Harness(os::Config c, mem::PhysMap* phys = nullptr) : cfg(std::move(c)) {
    linux_kernel = std::make_unique<os::LinuxKernel>(engine, cfg);
    transport = std::make_unique<IkcTransport>(engine, cfg, linux_kernel->service_cpus(),
                                               linux_kernel->profiler(), queueing,
                                               linux_kernel->spinlock_abi(), phys);
  }

  std::uint64_t counter(const std::string& name) const {
    return linux_kernel->profiler().counter(name);
  }

  /// Submit one offload whose service appends `tag` to `order` and returns
  /// it; completions land in `results` keyed by submit index.
  void submit(long tag, Priority prio, int channel, std::vector<long>& order,
              std::vector<long>& results) {
    sim::spawn(engine, [](Harness& h, long t, Priority p, int ch, std::vector<long>& ord,
                          std::vector<long>& res) -> sim::Task<> {
      auto r = co_await h.transport->offload(
          [&h, t, &ord]() -> sim::Task<Result<long>> {
            co_await h.engine.delay(from_us(2));
            ord.push_back(t);
            co_return t;
          },
          p, ch);
      EXPECT_TRUE(r.ok());
      res.push_back(r.ok() ? *r : -1L);
    }(*this, tag, prio, channel, order, results));
  }

  sim::Engine engine;
  os::Config cfg;
  Samples queueing;
  std::unique_ptr<os::LinuxKernel> linux_kernel;
  std::unique_ptr<IkcTransport> transport;
};

os::Config ring_cfg() {
  os::Config cfg;
  cfg.ikc_mode = os::IkcMode::ring;
  return cfg;
}

TEST(IkcTransport, RingOffloadCompletesWithResult) {
  Harness h(ring_cfg());
  std::vector<long> order, results;
  h.submit(42, Priority::control, 0, order, results);
  h.engine.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], 42);
  EXPECT_EQ(h.counter("ikc.ring.enqueue"), 1u);
  EXPECT_EQ(h.counter("ikc.ring.timeout"), 0u);
  EXPECT_EQ(h.counter("ikc.ring.degraded"), 0u);
  EXPECT_EQ(h.queueing.count(), 1u);
}

TEST(IkcTransport, BatchDrainAmortizesWakeups) {
  auto cfg = ring_cfg();
  cfg.linux_service_cpus = 1;  // one loop owns every channel
  Harness h(cfg);
  std::vector<long> order, results;
  constexpr int kOps = 16;
  for (int i = 0; i < kOps; ++i) h.submit(i, Priority::bulk, i, order, results);
  h.engine.run();
  ASSERT_EQ(results.size(), static_cast<std::size_t>(kOps));
  EXPECT_EQ(h.counter("ikc.ring.enqueue"), static_cast<std::uint64_t>(kOps));
  // All submissions land within one IKC one-way, so the loop must have
  // drained them in far fewer batches than requests — that is the
  // amortization the ring transport exists for.
  EXPECT_LT(h.counter("ikc.ring.batch_drain"), static_cast<std::uint64_t>(kOps) / 2);
  EXPECT_EQ(h.transport->loop_served(0), static_cast<std::uint64_t>(kOps));
}

TEST(IkcTransport, ControlClassServedBeforeBulk) {
  auto cfg = ring_cfg();
  cfg.linux_service_cpus = 1;
  cfg.ikc_channels = 1;  // everything on one channel: pure priority test
  Harness h(cfg);
  std::vector<long> order, results;
  for (int i = 0; i < 6; ++i) h.submit(100 + i, Priority::bulk, 0, order, results);
  h.submit(7, Priority::control, 0, order, results);  // submitted last
  h.engine.run();
  ASSERT_EQ(order.size(), 7u);
  EXPECT_EQ(order.front(), 7) << "control must jump the bulk queue";
}

TEST(IkcTransport, FifoOrderPreservedPerChannel) {
  auto cfg = ring_cfg();
  cfg.linux_service_cpus = 1;
  cfg.ikc_channels = 1;
  Harness h(cfg);
  std::vector<long> order, results;
  constexpr int kOps = 12;
  for (int i = 0; i < kOps; ++i) h.submit(i, Priority::bulk, 0, order, results);
  h.engine.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kOps));
  for (int i = 0; i < kOps; ++i)
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i) << "same-class FIFO broken at " << i;
}

TEST(IkcTransport, TimeoutRetriesOnAnotherLoopsRing) {
  auto cfg = ring_cfg();
  cfg.linux_service_cpus = 2;  // loops 0 and 1; channel k belongs to loop k%2
  cfg.ikc_deadline = from_us(50);
  Harness h(cfg);
  h.transport->inject_stall(0, true);
  std::vector<long> order, results;
  h.submit(1, Priority::control, 0, order, results);  // channel 0 → stalled loop 0
  h.engine.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], 1);
  EXPECT_GE(h.counter("ikc.ring.timeout"), 1u);
  EXPECT_GE(h.counter("ikc.ring.retry"), 1u);
  EXPECT_EQ(h.counter("ikc.ring.degraded"), 0u) << "healthy loop 1 must absorb the retry";
  EXPECT_EQ(h.transport->loop_served(1), 1u);
  EXPECT_GE(h.counter("ikc.ring.stale_skip"), 0u);
}

TEST(IkcTransport, AllLoopsStalledDegradesToDirectPathWithoutHanging) {
  auto cfg = ring_cfg();
  cfg.ikc_deadline = from_us(50);
  cfg.ikc_retry_backoff = from_us(1);
  Harness h(cfg);
  for (int l = 0; l < h.transport->num_loops(); ++l) h.transport->inject_stall(l, true);
  std::vector<long> order, results;
  constexpr int kOps = 8;
  for (int i = 0; i < kOps; ++i) h.submit(i, Priority::bulk, i, order, results);
  h.engine.run();  // must terminate: degradation, not a hang
  ASSERT_EQ(results.size(), static_cast<std::size_t>(kOps));
  EXPECT_GE(h.counter("ikc.ring.degraded"), 1u);
  for (int l = 0; l < h.transport->num_loops(); ++l)
    EXPECT_EQ(h.transport->loop_served(l), 0u);
}

TEST(IkcTransport, SuspectLoopRecoversThroughProbe) {
  auto cfg = ring_cfg();
  cfg.linux_service_cpus = 2;
  cfg.ikc_deadline = from_us(50);
  cfg.ikc_stall_threshold = 2;
  cfg.ikc_probe_interval = 2;  // every 2nd submit probes a suspect loop
  Harness h(cfg);
  h.transport->inject_stall(0, true);

  std::vector<long> order, results;
  for (int i = 0; i < 4; ++i) h.submit(i, Priority::control, 0, order, results);
  h.engine.run();
  ASSERT_TRUE(h.transport->loop_suspect(0)) << "timeouts must mark the stalled loop";

  h.transport->inject_stall(0, false);
  // Redirected submissions alone would never visit loop 0 again; the
  // periodic probe must land there, get served, and clear the suspicion.
  for (int i = 0; i < 8; ++i) h.submit(100 + i, Priority::control, 0, order, results);
  h.engine.run();
  EXPECT_GT(h.transport->loop_served(0), 0u) << "probe never reached the recovered loop";
  EXPECT_FALSE(h.transport->loop_suspect(0));
  EXPECT_GE(h.counter("ikc.ring.probe"), 1u);
  EXPECT_EQ(results.size(), 12u);
}

TEST(IkcTransport, FairDrainNeverClaimsHeadsThatSettledMidCollect) {
  // Regression: collect_batch's scan sees a queued head, but the
  // touch's awaits (lock hand-off, remote-drain surcharge) advance
  // simulated time before the pop. A head whose ring-residency deadline
  // fires inside that window is already being retried by its submitter on
  // another ring — claiming it anyway executes the service twice. Widen
  // the window (fat lock cost) and tighten the deadline so backlogged
  // heads routinely settle mid-collect, then assert no service ran twice.
  auto cfg = ring_cfg();
  cfg.linux_service_cpus = 2;
  cfg.ikc_channels = 4;
  cfg.ikc_lock_cost = from_us(5);  // widen the scan → pop window
  cfg.ikc_deadline = from_us(40);  // heads settle while batches collect
  cfg.ikc_retry_backoff = from_us(1);
  Harness h(cfg);
  std::vector<long> order, results;
  constexpr int kOps = 64;
  for (int i = 0; i < kOps; ++i)
    h.submit(i, i % 4 == 0 ? Priority::control : Priority::bulk, i % 4, order, results);
  h.engine.run();
  ASSERT_EQ(results.size(), static_cast<std::size_t>(kOps));
  // The scenario must actually flood heads into the settle window ...
  EXPECT_GT(h.counter("ikc.ring.timeout"), 0u);
  EXPECT_GT(h.counter("ikc.ring.stale_skip"), 0u);
  // ... and every service must run at most once: a timed-out attempt is
  // the submitter's to retry, never the drain's to claim.
  std::map<long, int> runs;
  for (long tag : order) ++runs[tag];
  for (const auto& [tag, n] : runs)
    EXPECT_LE(n, 1) << "service for op " << tag << " executed " << n << " times";
}

TEST(IkcTransport, RingFullRetriesAndCompletesEverything) {
  auto cfg = ring_cfg();
  cfg.ikc_channels = 1;
  cfg.ikc_ring_depth = 2;
  cfg.ikc_deadline = from_us(50);
  cfg.ikc_retry_backoff = from_us(1);
  Harness h(cfg);
  h.transport->inject_stall(0, true);  // nothing drains: the ring must fill
  std::vector<long> order, results;
  constexpr int kOps = 6;
  for (int i = 0; i < kOps; ++i) h.submit(i, Priority::bulk, 0, order, results);
  h.engine.run();
  ASSERT_EQ(results.size(), static_cast<std::size_t>(kOps));
  EXPECT_GE(h.counter("ikc.ring.full"), 1u);
  EXPECT_GE(h.counter("ikc.ring.degraded"), 1u);
}

TEST(IkcTransport, DepthHistogramAccountsEveryEnqueue) {
  auto cfg = ring_cfg();
  cfg.ikc_channels = 2;
  Harness h(cfg);
  std::vector<long> order, results;
  constexpr int kOps = 10;
  for (int i = 0; i < kOps; ++i) h.submit(i, Priority::bulk, i % 2, order, results);
  h.engine.run();
  std::uint64_t histogram_total = 0;
  for (int ch = 0; ch < h.transport->num_channels(); ++ch) {
    for (auto v : h.transport->depth_histogram(ch)) histogram_total += v;
    EXPECT_EQ(h.transport->channel_depth(ch), 0u) << "ring must drain by idle";
  }
  EXPECT_EQ(histogram_total, h.counter("ikc.ring.enqueue"));
}

TEST(IkcTransport, DirectModeMatchesLegacyTiming) {
  // ikc_mode = direct must reproduce the legacy closed-form single-offload
  // cost exactly — the guarantee that keeps every calibrated paper shape
  // intact while the ring transport exists behind the same facade.
  os::Config cfg;  // defaults: direct
  Harness h(cfg);
  Time finished = -1;
  sim::spawn(h.engine, [](Harness& hh, Time& out) -> sim::Task<> {
    auto r = co_await hh.transport->offload(
        []() -> sim::Task<Result<long>> { co_return 5L; }, Priority::control, 0);
    EXPECT_TRUE(r.ok());
    out = hh.engine.now();
  }(h, finished));
  h.engine.run();
  const Dur expected = 2 * cfg.offload_oneway + cfg.proxy_wakeup_hot + cfg.offload_dispatch +
                       cfg.proxy_min_service;
  EXPECT_EQ(finished, expected);
  EXPECT_EQ(h.counter("ikc.ring.enqueue"), 0u) << "direct mode must not touch the rings";
}

TEST(IkcTransport, DirectCountersPinnedInBothModes) {
  // Regression pin on the ikc.direct.* wakeup accounting the benches
  // compare transports with: direct mode pays exactly one proxy wakeup and
  // one reply wakeup per offload; healthy ring mode pays zero of either;
  // and a fully degraded ring run pays them only for the offloads that
  // actually fell back to the direct path.
  constexpr int kOps = 8;
  {
    os::Config cfg;  // defaults: direct
    Harness h(cfg);
    std::vector<long> order, results;
    for (int i = 0; i < kOps; ++i) h.submit(i, Priority::bulk, i, order, results);
    h.engine.run();
    ASSERT_EQ(results.size(), static_cast<std::size_t>(kOps));
    EXPECT_EQ(h.counter("ikc.direct.proxy_wakeup"), static_cast<std::uint64_t>(kOps));
    EXPECT_EQ(h.counter("ikc.direct.reply_wakeup"), static_cast<std::uint64_t>(kOps));
    EXPECT_EQ(h.counter("ikc.ring.enqueue"), 0u);
    EXPECT_EQ(h.counter("ikc.ring.doorbell"), 0u);
  }
  {
    Harness h(ring_cfg());
    std::vector<long> order, results;
    for (int i = 0; i < kOps; ++i) h.submit(i, Priority::bulk, i, order, results);
    h.engine.run();
    ASSERT_EQ(results.size(), static_cast<std::size_t>(kOps));
    EXPECT_EQ(h.counter("ikc.direct.proxy_wakeup"), 0u)
        << "healthy ring traffic must never touch the proxy path";
    EXPECT_EQ(h.counter("ikc.direct.reply_wakeup"), 0u);
    EXPECT_EQ(h.counter("ikc.ring.enqueue"), static_cast<std::uint64_t>(kOps));
  }
  {
    auto cfg = ring_cfg();
    cfg.ikc_deadline = from_us(50);
    cfg.ikc_retry_backoff = from_us(1);
    Harness h(cfg);
    for (int l = 0; l < h.transport->num_loops(); ++l) h.transport->inject_stall(l, true);
    std::vector<long> order, results;
    for (int i = 0; i < kOps; ++i) h.submit(i, Priority::bulk, i, order, results);
    h.engine.run();
    ASSERT_EQ(results.size(), static_cast<std::size_t>(kOps));
    const auto degraded = h.counter("ikc.ring.degraded");
    EXPECT_GE(degraded, 1u);
    EXPECT_EQ(h.counter("ikc.direct.proxy_wakeup"), degraded)
        << "each degraded offload pays exactly one proxy wakeup";
    EXPECT_EQ(h.counter("ikc.direct.reply_wakeup"), degraded);
  }
}

TEST(IkcReply, PollingConsumersNeedNoCompletionWakeups) {
  // Services finish well inside the poll budget, so every completion must
  // be found by the polling LWK core — zero reply wakeups on the whole run.
  auto cfg = ring_cfg();
  Harness h(cfg);
  std::vector<long> order, results;
  constexpr int kOps = 12;
  for (int i = 0; i < kOps; ++i) h.submit(i, Priority::bulk, i, order, results);
  h.engine.run();
  ASSERT_EQ(results.size(), static_cast<std::size_t>(kOps));
  EXPECT_EQ(h.counter("ikc.reply.poll_hit"), static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(h.counter("ikc.reply.wakeup"), 0u);
  EXPECT_EQ(h.counter("ikc.reply.park"), 0u);
  for (int ch = 0; ch < h.transport->num_channels(); ++ch)
    EXPECT_EQ(h.transport->reply_ring_depth(ch), 0u) << "notifications must be reclaimed";
}

TEST(IkcReply, ParkedConsumerWokenByOneDoorbellPerBatch) {
  // Exhaust the poll budget before the service finishes: the consumers
  // must park, and the whole batch of completions must come back on a
  // single completion doorbell (one wakeup, many requests).
  auto cfg = ring_cfg();
  cfg.linux_service_cpus = 1;
  cfg.ikc_channels = 1;
  cfg.ikc_reply_poll_budget = from_us(2);
  Harness h(cfg);
  std::vector<long> results;
  constexpr int kOps = 6;
  for (int i = 0; i < kOps; ++i) {
    sim::spawn(h.engine, [](Harness& hh, long t, std::vector<long>& res) -> sim::Task<> {
      auto r = co_await hh.transport->offload(
          [&hh, t]() -> sim::Task<Result<long>> {
            co_await hh.engine.delay(from_us(40));  // far past the poll budget
            co_return t;
          },
          Priority::bulk, 0);
      EXPECT_TRUE(r.ok());
      res.push_back(r.ok() ? *r : -1L);
    }(h, i, results));
  }
  h.engine.run();
  ASSERT_EQ(results.size(), static_cast<std::size_t>(kOps));
  EXPECT_GE(h.counter("ikc.reply.park"), static_cast<std::uint64_t>(kOps));
  EXPECT_GE(h.counter("ikc.reply.wakeup"), 1u);
  EXPECT_LT(h.counter("ikc.reply.wakeup"), static_cast<std::uint64_t>(kOps))
      << "one doorbell per parked request instead of one per batch";
}

TEST(IkcReply, LostDoorbellRecoveredBySelfDrain) {
  auto cfg = ring_cfg();
  cfg.linux_service_cpus = 1;
  cfg.ikc_channels = 1;
  cfg.ikc_reply_poll_budget = from_us(2);
  cfg.ikc_reply_deadline = from_us(200);
  Harness h(cfg);
  h.transport->inject_reply_doorbell_loss(0, true);
  std::vector<long> results;
  sim::spawn(h.engine, [](Harness& hh, std::vector<long>& res) -> sim::Task<> {
    auto r = co_await hh.transport->offload(
        [&hh]() -> sim::Task<Result<long>> {
          co_await hh.engine.delay(from_us(40));
          co_return 9L;
        },
        Priority::bulk, 0);
    EXPECT_TRUE(r.ok());
    res.push_back(r.ok() ? *r : -1L);
  }(h, results));
  h.engine.run();  // must terminate: the self-drain watchdog, not the doorbell
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], 9);
  EXPECT_GE(h.counter("ikc.reply.doorbell_lost"), 1u);
  EXPECT_GE(h.counter("ikc.reply.self_drain"), 1u);
  EXPECT_EQ(h.counter("ikc.reply.wakeup"), 0u);
}

/// Offload once on channel 0 with a service of `work` whose closure holds
/// `sentinel`; `returned` is set when the offload has come back. The
/// service is a named local: GCC 12 destroys a capturing lambda temporary
/// twice when it is an argument inside a `co_await` expression.
void offload_holding(Harness& h, const std::shared_ptr<int>& sentinel, Dur work,
                     bool& returned) {
  sim::spawn(h.engine, [](Harness& hh, std::shared_ptr<int> held, Dur d,
                          bool& done) -> sim::Task<> {
    Service service = [&hh, held, d]() -> sim::Task<Result<long>> {
      co_await hh.engine.delay(d);
      co_return 1L;
    };
    auto r = co_await hh.transport->offload(service, Priority::bulk, 0);
    EXPECT_TRUE(r.ok());
    done = true;
  }(h, sentinel, work, returned));
}

TEST(IkcLifetime, CompletedOffloadReleasesItsRequestBeforeTheWatchdog) {
  // The request owns a copy of the service closure, which holds the
  // sentinel. Once the offload has returned nothing may keep the request
  // alive, and its 10 ms ring-residency watchdog must not either.
  Harness h(ring_cfg());
  auto sentinel = std::make_shared<int>(0);
  bool returned = false;
  offload_holding(h, sentinel, from_us(2), returned);
  h.engine.run_until(from_ms(1));
  ASSERT_TRUE(returned);
  EXPECT_EQ(sentinel.use_count(), 1) << "a settled request outlived its offload";
  EXPECT_FALSE(h.engine.idle()) << "the watchdog is still pending";
  h.engine.run();
  EXPECT_GE(h.engine.now(), h.cfg.ikc_deadline) << "the watchdog no longer fires";
}

TEST(IkcLifetime, ParkedOffloadReleasesItsRequestBeforeTheSelfDrain) {
  // The service outlasts the poll budget, so the consumer parks and arms
  // its 2 ms self-drain timer; the doorbell wakes it long before that.
  auto cfg = ring_cfg();
  cfg.linux_service_cpus = 1;
  cfg.ikc_channels = 1;
  cfg.ikc_reply_poll_budget = from_us(2);
  Harness h(cfg);
  auto sentinel = std::make_shared<int>(0);
  bool returned = false;
  offload_holding(h, sentinel, from_us(40), returned);
  h.engine.run_until(from_us(500));
  ASSERT_TRUE(returned);
  EXPECT_GE(h.counter("ikc.reply.park"), 1u);
  EXPECT_EQ(sentinel.use_count(), 1) << "a settled request outlived its offload";
  h.engine.run();
  EXPECT_GE(h.engine.now(), h.cfg.ikc_deadline) << "the watchdog no longer fires";
}

TEST(IkcAdaptive, DrainLimitConvergesToOfferedDepth) {
  // A constant offered depth of 12 must pull the drain limit up from its
  // starting value of 1 until (nearly) the whole wave drains in one batch.
  auto cfg = ring_cfg();
  cfg.linux_service_cpus = 1;
  Harness h(cfg);
  constexpr int kDepth = 12;
  std::vector<long> order, results;
  std::uint64_t last_round_drains = 0;
  for (int round = 0; round < 8; ++round) {
    const std::uint64_t before = h.counter("ikc.ring.batch_drain");
    for (int i = 0; i < kDepth; ++i)
      h.submit(round * 100 + i, Priority::bulk, i, order, results);
    h.engine.run();
    last_round_drains = h.counter("ikc.ring.batch_drain") - before;
  }
  ASSERT_EQ(results.size(), 8u * kDepth);
  EXPECT_GE(h.transport->loop_batch_limit(0), 9)
      << "EWMA sizing failed to grow toward the offered depth";
  EXPECT_LE(h.transport->loop_batch_limit(0), cfg.ikc_ring_depth);
  // Steady state alternates one full-wave observation (12) with one
  // leftover observation per round; the EWMA settles between the two.
  EXPECT_GE(h.transport->loop_depth_ewma(0), 4.0);
  EXPECT_LE(last_round_drains, 3u)
      << "converged loop should drain a 12-deep wave in one or two batches";
  EXPECT_GE(h.counter("ikc.adaptive.grow"), 1u);
}

TEST(IkcNuma, PinnedLoopsOwnTheirChannelsSockets) {
  // Default topology: 68 cores / 4 sockets, 4 service loops → one loop per
  // socket, and every channel must land on the loop pinned to its ring's
  // socket.
  auto cfg = ring_cfg();
  Harness h(cfg);
  ASSERT_EQ(h.transport->num_loops(), 4);
  for (int l = 0; l < 4; ++l) EXPECT_EQ(h.transport->loop_socket(l), l);
  for (int ch = 0; ch < h.transport->num_channels(); ++ch)
    EXPECT_EQ(h.transport->loop_socket(h.transport->loop_of(ch)),
              h.transport->channel_socket(ch))
        << "channel " << ch << " drained from a foreign socket";
  EXPECT_EQ(h.counter("ikc.numa.matched_channel"),
            static_cast<std::uint64_t>(h.transport->num_channels()));
  EXPECT_EQ(h.counter("ikc.numa.far_channel"), 0u);
  // And the service must then be all-local.
  std::vector<long> order, results;
  for (int i = 0; i < 8; ++i) h.submit(i, Priority::bulk, i, order, results);
  h.engine.run();
  EXPECT_GE(h.counter("ikc.numa.local_drain"), 1u);
  EXPECT_EQ(h.counter("ikc.numa.remote_drain"), 0u);
}

TEST(IkcNuma, UnpinnedShardingIsRoundRobin) {
  auto cfg = ring_cfg();
  cfg.ikc_numa_pin = false;
  Harness h(cfg);
  for (int ch = 0; ch < h.transport->num_channels(); ++ch)
    EXPECT_EQ(h.transport->loop_of(ch), ch % h.transport->num_loops());
  EXPECT_EQ(h.counter("ikc.numa.pinned_loop"), 0u);
}

TEST(IkcNuma, RingMemoryPlacedNearOwnerSocket) {
  auto cfg = ring_cfg();
  mem::PhysMap phys = mem::PhysMap::knl(256ull << 20, 1ull << 30, cfg.numa_per_kind);
  Harness h(cfg, &phys);
  for (int ch = 0; ch < h.transport->num_channels(); ++ch) {
    const mem::PhysAddr addr = h.transport->channel_ring_phys(ch);
    ASSERT_NE(addr, 0u) << "ring memory must be really allocated with a PhysMap";
    const auto dom = phys.domain_of(addr);
    ASSERT_TRUE(dom.has_value());
    EXPECT_EQ(static_cast<int>(*dom % static_cast<std::size_t>(cfg.numa_per_kind)),
              h.transport->channel_socket(ch));
  }
  // The destructor must return every ring region to the map.
  const std::uint64_t free_before =
      phys.free_bytes(mem::MemKind::mcdram) + phys.free_bytes(mem::MemKind::ddr);
  h.transport.reset();
  const std::uint64_t free_after =
      phys.free_bytes(mem::MemKind::mcdram) + phys.free_bytes(mem::MemKind::ddr);
  EXPECT_EQ(free_after, free_before + static_cast<std::uint64_t>(h.cfg.ikc_channels == 0
                                                                     ? h.cfg.app_cores
                                                                     : h.cfg.ikc_channels) *
                                          cfg.ikc_ring_region_bytes);
}

/// Run one elastic lifecycle op to completion and return its status.
Status run_elastic(Harness& h, bool retire) {
  Status out = Errno::eagain;
  // Deliberately not a conditional expression: `r ? co_await a() : co_await
  // b()` is miscompiled by GCC's coroutine lowering (both arms run).
  sim::spawn(h.engine, [](Harness& hh, bool r, Status& o) -> sim::Task<> {
    if (r)
      o = co_await hh.transport->retire_loop();
    else
      o = co_await hh.transport->attach_loop();
  }(h, retire, out));
  h.engine.run();
  return out;
}

TEST(IkcTransport, DirectModeBuildsNoRingState) {
  // The direct path never touches a ring, so it must not build one: no
  // channel (hence no ring, lock, reply ring or histogram) and no service
  // loop. Retire/attach are pure active-count bookkeeping there.
  os::Config cfg;  // defaults: direct
  cfg.linux_service_cpus = 2;
  cfg.elastic_max_service_cpus = 3;
  Harness h(cfg);
  EXPECT_EQ(h.transport->num_channels(), 0);
  EXPECT_EQ(h.transport->max_loops(), 3);
  EXPECT_TRUE(run_elastic(h, /*retire=*/true).ok());
  EXPECT_EQ(h.transport->active_loops(), 1);
  EXPECT_EQ(run_elastic(h, /*retire=*/true).error(), Errno::einval);
  EXPECT_TRUE(run_elastic(h, /*retire=*/false).ok());
  EXPECT_TRUE(run_elastic(h, /*retire=*/false).ok());
  EXPECT_EQ(run_elastic(h, /*retire=*/false).error(), Errno::enospc);
  EXPECT_EQ(h.transport->active_loops(), 3);
  EXPECT_EQ(h.counter("ikc.elastic.loop_retired"), 0u);
  EXPECT_EQ(h.counter("ikc.elastic.loop_attached"), 0u);
  std::vector<long> order, results;
  for (int i = 0; i < 4; ++i) h.submit(i, Priority::bulk, i, order, results);
  h.engine.run();
  EXPECT_EQ(results.size(), 4u);
  EXPECT_EQ(h.counter("ikc.direct.proxy_wakeup"), 4u);
}

TEST(IkcElastic, RetireQuiescesReshardsAndKeepsServing) {
  auto cfg = ring_cfg();
  cfg.linux_service_cpus = 3;
  Harness h(cfg);
  ASSERT_EQ(h.transport->active_loops(), 3);

  std::vector<long> order, results;
  for (int i = 0; i < 12; ++i) h.submit(i, Priority::bulk, i, order, results);
  h.engine.run();
  ASSERT_EQ(results.size(), 12u);

  EXPECT_TRUE(run_elastic(h, /*retire=*/true).ok());
  EXPECT_EQ(h.transport->active_loops(), 2);
  EXPECT_EQ(h.counter("ikc.elastic.loop_retired"), 1u);
  EXPECT_GE(h.counter("ikc.elastic.reshard"), 1u);
  // Every channel now belongs to a surviving loop — the re-shard over the
  // active prefix left nothing routed at the retired slot.
  for (int c = 0; c < h.transport->num_channels(); ++c)
    EXPECT_LT(h.transport->loop_of(c), 2) << "channel " << c;

  // Traffic after the shrink completes on the survivors, timeout-free.
  for (int i = 100; i < 112; ++i) h.submit(i, Priority::bulk, i, order, results);
  h.engine.run();
  EXPECT_EQ(results.size(), 24u);
  EXPECT_EQ(h.counter("ikc.ring.timeout"), 0u);
}

TEST(IkcElastic, RetireWithInflightRequestsLosesNothing) {
  auto cfg = ring_cfg();
  cfg.linux_service_cpus = 2;
  Harness h(cfg);
  std::vector<long> order, results;
  // Queue a burst on every channel, then retire while it is in flight: the
  // retiring loop finishes what it claimed, the re-shard hands its backlog
  // to loop 0, and every op still completes exactly once.
  constexpr int kOps = 32;
  for (int i = 0; i < kOps; ++i) h.submit(i, Priority::bulk, i, order, results);
  Status retire = Errno::eagain;
  sim::spawn(h.engine, [](Harness& hh, Status& o) -> sim::Task<> {
    o = co_await hh.transport->retire_loop();
  }(h, retire));
  h.engine.run();
  EXPECT_TRUE(retire.ok());
  EXPECT_EQ(h.transport->active_loops(), 1);
  ASSERT_EQ(results.size(), static_cast<std::size_t>(kOps));
  std::vector<int> seen(kOps, 0);
  for (long t : order) ++seen[static_cast<std::size_t>(t)];
  for (int i = 0; i < kOps; ++i) EXPECT_EQ(seen[i], 1) << "op " << i;
}

TEST(IkcElastic, LastLoopCannotRetireAndAttachIsBoundedBySlots) {
  auto cfg = ring_cfg();
  cfg.linux_service_cpus = 2;
  Harness h(cfg);
  EXPECT_EQ(h.transport->max_loops(), 2);  // no elastic headroom configured
  EXPECT_TRUE(run_elastic(h, /*retire=*/true).ok());
  // One active loop left: retiring it would leave offloads with no Linux side.
  EXPECT_EQ(run_elastic(h, /*retire=*/true).error(), Errno::einval);
  // Revive the slot, then attach past the provisioned ceiling.
  EXPECT_TRUE(run_elastic(h, /*retire=*/false).ok());
  EXPECT_EQ(h.transport->active_loops(), 2);
  EXPECT_EQ(run_elastic(h, /*retire=*/false).error(), Errno::enospc);
  EXPECT_EQ(h.counter("ikc.elastic.loop_attached"), 1u);
}

TEST(IkcElastic, AttachHeadroomGrowsBeyondBootShape) {
  auto cfg = ring_cfg();
  cfg.linux_service_cpus = 2;
  cfg.elastic_max_service_cpus = 4;  // pre-provision two spare loop slots
  Harness h(cfg);
  EXPECT_EQ(h.transport->max_loops(), 4);
  EXPECT_TRUE(run_elastic(h, /*retire=*/false).ok());
  EXPECT_TRUE(run_elastic(h, /*retire=*/false).ok());
  EXPECT_EQ(h.transport->active_loops(), 4);
  std::vector<long> order, results;
  for (int i = 0; i < 16; ++i) h.submit(i, Priority::bulk, i, order, results);
  h.engine.run();
  EXPECT_EQ(results.size(), 16u);
  // All four loops own channels after the grown re-shard.
  for (int l = 0; l < 4; ++l) {
    bool owns = false;
    for (int c = 0; c < h.transport->num_channels(); ++c)
      owns |= h.transport->loop_of(c) == l;
    EXPECT_TRUE(owns) << "loop " << l << " owns no channels after attach";
  }
}

TEST(IkcElastic, AttachWhileRetireQuiescesIsBusy) {
  // Regression: retire_loop() gives up its active slot before the loop has
  // exited. An attach in that window used to take the same slot and free
  // the Loop the retiring coroutine still ran on (a use-after-free under
  // ASan). It must get EBUSY, and a later attach must revive the slot.
  auto cfg = ring_cfg();
  cfg.linux_service_cpus = 3;
  cfg.ikc_channels = 6;
  Harness h(cfg);
  std::vector<long> order, results;
  constexpr int kOps = 60;
  for (int i = 0; i < kOps; ++i) h.submit(i, Priority::bulk, i % 6, order, results);
  Status retire = Errno::eagain;
  Status attach = Errno::eagain;
  sim::spawn(h.engine, [](Harness& hh, Status& o) -> sim::Task<> {
    co_await hh.engine.delay(from_us(5));
    o = co_await hh.transport->retire_loop();
  }(h, retire));
  sim::spawn(h.engine, [](Harness& hh, Status& o) -> sim::Task<> {
    co_await hh.engine.delay(from_us(6));
    o = co_await hh.transport->attach_loop();
  }(h, attach));
  h.engine.run();
  EXPECT_TRUE(retire.ok());
  EXPECT_EQ(attach.error(), Errno::ebusy);
  EXPECT_EQ(h.transport->active_loops(), 2);
  ASSERT_EQ(results.size(), static_cast<std::size_t>(kOps));
  std::vector<int> seen(kOps, 0);
  for (long t : order) ++seen[static_cast<std::size_t>(t)];
  for (int i = 0; i < kOps; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], 1) << "op " << i;

  // Once the retire has quiesced, the slot revives and serves.
  EXPECT_TRUE(run_elastic(h, /*retire=*/false).ok());
  EXPECT_EQ(h.transport->active_loops(), 3);
  for (int i = 0; i < 12; ++i) h.submit(100 + i, Priority::bulk, i % 6, order, results);
  h.engine.run();
  EXPECT_EQ(results.size(), static_cast<std::size_t>(kOps) + 12);
}

// Satellite regression: a loop retired while *suspect* (or with calibrated
// EWMA drain state) must not leak that verdict into the slot's next life —
// and survivors whose channel sets changed in the re-shard must re-learn
// their depth EWMA instead of applying a limit calibrated for the old shard.
TEST(IkcElastic, ReshardResetsSuspectProbeAndEwmaState) {
  auto cfg = ring_cfg();
  cfg.linux_service_cpus = 2;
  cfg.ikc_deadline = from_us(50);
  Harness h(cfg);

  // Wedge loop 1 and drive traffic at one of its channels until the
  // timeout ladder marks it suspect.
  int victim_channel = -1;
  for (int c = 0; c < h.transport->num_channels(); ++c)
    if (h.transport->loop_of(c) == 1) { victim_channel = c; break; }
  ASSERT_GE(victim_channel, 0);
  h.transport->inject_stall(1, true);
  std::vector<long> order, results;
  for (int i = 0; i < 6; ++i) h.submit(i, Priority::control, victim_channel, order, results);
  h.engine.run();
  ASSERT_EQ(results.size(), 6u);  // recovered via retry/degrade ladder
  ASSERT_TRUE(h.transport->loop_suspect(1));

  // Retire the wedged loop (retire must cut through the injected stall),
  // then revive the slot: the fresh loop starts with a clean bill of
  // health — no inherited suspect mark, no stale drain calibration.
  EXPECT_TRUE(run_elastic(h, /*retire=*/true).ok());
  EXPECT_TRUE(run_elastic(h, /*retire=*/false).ok());
  EXPECT_FALSE(h.transport->loop_suspect(1));
  EXPECT_DOUBLE_EQ(h.transport->loop_depth_ewma(1), 0.0);
  EXPECT_EQ(h.transport->loop_batch_limit(1), 1);
  EXPECT_GE(h.counter("ikc.elastic.health_reset"), 1u);

  // And the revived loop serves its channels without tripping the ladder.
  for (int i = 100; i < 106; ++i)
    h.submit(i, Priority::control, victim_channel, order, results);
  const std::uint64_t timeouts_before = h.counter("ikc.ring.timeout");
  h.engine.run();
  EXPECT_EQ(results.size(), 12u);
  EXPECT_EQ(h.counter("ikc.ring.timeout"), timeouts_before);
}

TEST(QueueingSummary, PercentilesFromSamples) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  const auto q = summarize_queueing(s);
  EXPECT_EQ(q.count, 100u);
  EXPECT_DOUBLE_EQ(q.mean_us, 50.5);
  EXPECT_DOUBLE_EQ(q.p50_us, 50.0);
  EXPECT_DOUBLE_EQ(q.p95_us, 95.0);
  EXPECT_DOUBLE_EQ(q.max_us, 100.0);
  const auto empty = summarize_queueing(Samples{});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.max_us, 0.0);
}

}  // namespace
}  // namespace pd::ikc
