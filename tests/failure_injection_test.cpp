// Failure-injection tests: engine resets under live traffic, debug-info
// corruption, missing-field and narrowed-field binds, callback faults,
// foreign-free policy failures — the unhappy paths the architecture must
// survive.
#include <gtest/gtest.h>

#include "bench/bench_common.hpp"
#include "src/common/units.hpp"
#include "src/doom/driver.hpp"
#include "src/dwarf/constants.hpp"
#include "src/dwarf/writer.hpp"
#include "src/hfi/driver.hpp"
#include "src/ikc/transport.hpp"
#include "src/mpirt/world.hpp"
#include "src/pico/doom_picodriver.hpp"
#include "src/pico/hfi_picodriver.hpp"

#define CO_ASSERT_TRUE(cond)                          \
  do {                                                \
    const bool co_assert_ok_ = static_cast<bool>(cond); \
    EXPECT_TRUE(co_assert_ok_) << #cond;              \
    if (!co_assert_ok_) co_return;                    \
  } while (0)

namespace pd {
namespace {

using namespace pd::time_literals;

/// Flip one SDMA engine's state (a "reset in progress") through the
/// driver's own layout view.
void set_engine_state(hfi::HfiDriver& driver, os::LinuxKernel& linux_kernel, int engine_id,
                      hfi::SdmaStates state) {
  const dwarf::LayoutTable& layouts = driver.layouts();
  layouts.image(linux_kernel.kheap().data(driver.sdma_engine_image(engine_id)), "sdma_engine")
      .member("state", *layouts.structure("sdma_state"))
      .write<std::uint32_t>("current_state", static_cast<std::uint32_t>(state));
}

TEST(FailureInjection, EngineResetMidRunFallsBackAndRecovers) {
  mpirt::ClusterOptions copts;
  copts.nodes = 2;
  copts.mode = os::OsMode::mckernel_hfi;
  copts.mcdram_bytes = 256ull << 20;
  copts.ddr_bytes = 1ull << 30;
  mpirt::Cluster cluster(copts);
  mpirt::WorldOptions wopts;
  wopts.ranks_per_node = 2;
  mpirt::MpiWorld world(cluster, wopts);

  // Halt every engine on node 0 shortly after start; bring them back
  // later. Fast-path writevs in the window must take the Linux fallback;
  // traffic must nonetheless complete.
  auto& node0 = cluster.node(0);
  cluster.engine().schedule_after(from_us(400), [&] {
    for (int e = 0; e < node0.device->num_engines(); ++e)
      set_engine_state(*node0.driver, *node0.linux_kernel, e,
                       hfi::SdmaStates::s50_hw_halt_wait);
  });
  cluster.engine().schedule_after(from_ms(3.0), [&] {
    for (int e = 0; e < node0.device->num_engines(); ++e)
      set_engine_state(*node0.driver, *node0.linux_kernel, e,
                       hfi::SdmaStates::s99_running);
  });

  int done = 0;
  world.run([&](mpirt::Rank& rank) -> sim::Task<> {
    co_await rank.init();
    const int peer = (rank.id() + 2) % 4;
    for (int i = 0; i < 6; ++i) {
      auto r = rank.irecv(peer, 100 + i, 256ull << 10);
      auto s = rank.isend(peer, 100 + i, 256ull << 10);
      co_await rank.wait(std::move(s));
      co_await rank.wait(std::move(r));
      co_await rank.compute(from_ms(0.6));
    }
    co_await rank.finalize();
    ++done;
  });
  EXPECT_EQ(done, 4);
  EXPECT_GT(node0.pico->fallbacks(), 0u) << "halted engines must trigger the Linux path";
  EXPECT_GT(node0.pico->fast_writevs(), node0.pico->fallbacks())
      << "after recovery the fast path must be back in use";
  EXPECT_EQ(node0.driver->writev_calls(), node0.pico->fallbacks())
      << "the unmodified Linux path served exactly the fallback calls";
}

TEST(FailureInjection, StalledServiceLoopsDegradeOffloadsInsteadOfHanging) {
  // Every IKC service loop on node 0 stalls before traffic starts: ring
  // submissions there must walk the timeout → retry → degrade ladder and
  // finish on the legacy direct path, while node 1's rings stay healthy.
  // The run completing at all is the main assertion — a lost request or a
  // missed degradation would deadlock world.run().
  mpirt::ClusterOptions copts;
  copts.nodes = 2;
  copts.mode = os::OsMode::mckernel;
  copts.mcdram_bytes = 256ull << 20;
  copts.ddr_bytes = 1ull << 30;
  copts.cfg.ikc_mode = os::IkcMode::ring;
  copts.cfg.ikc_deadline = from_us(200);  // short: the ladder must resolve fast
  copts.cfg.ikc_max_retries = 1;
  copts.cfg.ikc_retry_backoff = from_us(1);
  copts.cfg.ikc_stall_threshold = 1;
  mpirt::Cluster cluster(copts);
  auto& node0 = cluster.node(0);
  // Stall after startup (like the engine-reset test): a stall during MPI
  // init would leave node 0's device contexts unopened while peers already
  // send init-barrier traffic at them, which no transport can fix.
  cluster.engine().schedule_after(from_us(400), [&] {
    for (int l = 0; l < node0.ihk->transport().num_loops(); ++l)
      node0.ihk->transport().inject_stall(l, true);
  });

  mpirt::WorldOptions wopts;
  wopts.ranks_per_node = 2;
  mpirt::MpiWorld world(cluster, wopts);
  int done = 0;
  world.run([&](mpirt::Rank& rank) -> sim::Task<> {
    co_await rank.init();
    const int peer = (rank.id() + 2) % 4;
    for (int i = 0; i < 4; ++i) {
      auto r = rank.irecv(peer, 200 + i, 128ull << 10);
      auto s = rank.isend(peer, 200 + i, 128ull << 10);
      co_await rank.wait(std::move(s));
      co_await rank.wait(std::move(r));
      co_await rank.compute(from_ms(0.2));
    }
    co_await rank.finalize();
    ++done;
  });
  EXPECT_EQ(done, 4) << "all ranks must complete despite the stalled loops";

  const auto& prof0 = node0.linux_kernel->profiler();
  EXPECT_GT(prof0.counter("ikc.ring.timeout"), 0u);
  EXPECT_GT(prof0.counter("ikc.ring.degraded"), 0u)
      << "node 0 offloads must fall back to the direct path";
  // Node 1's transport never saw a stall: everything rode the rings.
  const auto& prof1 = cluster.node(1).linux_kernel->profiler();
  EXPECT_EQ(prof1.counter("ikc.ring.degraded"), 0u);
  EXPECT_GT(prof1.counter("ikc.ring.enqueue"), 0u);
}

/// Bare ring-mode transport for the reply-path failure rungs.
struct ReplyFaultHarness {
  explicit ReplyFaultHarness(os::Config c) : cfg(std::move(c)) {
    linux_kernel = std::make_unique<os::LinuxKernel>(engine, cfg);
    transport = std::make_unique<ikc::IkcTransport>(
        engine, cfg, linux_kernel->service_cpus(), linux_kernel->profiler(), queueing,
        linux_kernel->spinlock_abi());
  }
  std::uint64_t counter(const std::string& name) const {
    return linux_kernel->profiler().counter(name);
  }
  /// Offload a `work`-long no-op service; its errno lands in `errs`, its
  /// value in `vals` (submission order).
  void submit(long tag, Dur work, std::vector<Errno>& errs, std::vector<long>& vals) {
    submit_on(0, 0, tag, work, errs, vals);
  }
  /// Same, but on an explicit channel under an explicit tenant identity.
  void submit_on(int channel, ikc::JobId job, long tag, Dur work,
                 std::vector<Errno>& errs, std::vector<long>& vals) {
    sim::spawn(engine, [](ReplyFaultHarness& h, int ch, ikc::JobId j, long t, Dur w,
                          std::vector<Errno>& es, std::vector<long>& vs) -> sim::Task<> {
      auto r = co_await h.transport->offload(
          [&h, t, w]() -> sim::Task<Result<long>> {
            co_await h.engine.delay(w);
            co_return t;
          },
          ikc::Priority::bulk, ch, j);
      es.push_back(r.error());
      vs.push_back(r.ok() ? *r : -1L);
    }(*this, channel, job, tag, work, errs, vals));
  }

  sim::Engine engine;
  os::Config cfg;
  Samples queueing;
  std::unique_ptr<os::LinuxKernel> linux_kernel;
  std::unique_ptr<ikc::IkcTransport> transport;
};

os::Config reply_fault_cfg() {
  os::Config cfg;
  cfg.ikc_mode = os::IkcMode::ring;
  cfg.linux_service_cpus = 1;
  cfg.ikc_channels = 1;
  cfg.ikc_reply_poll_budget = from_us(2);  // consumers park early
  return cfg;
}

TEST(FailureInjection, FullReplyRingFallsBackToPerRequestWakeups) {
  // A 1-slot reply ring with every consumer parked: posts beyond the first
  // must take the per-request wakeup fallback instead of dropping or
  // blocking the service loop. Everything still completes.
  auto cfg = reply_fault_cfg();
  cfg.ikc_reply_depth = 1;
  cfg.ikc_reply_max_depth = 1;  // keep the ring pinned at 1 slot
  ReplyFaultHarness h(cfg);
  std::vector<Errno> errs;
  std::vector<long> vals;
  constexpr int kOps = 6;
  for (int i = 0; i < kOps; ++i) h.submit(i, from_us(40), errs, vals);
  h.engine.run();
  ASSERT_EQ(vals.size(), static_cast<std::size_t>(kOps));
  for (int i = 0; i < kOps; ++i) EXPECT_EQ(errs[static_cast<std::size_t>(i)], Errno::ok);
  EXPECT_GE(h.counter("ikc.reply.ring_full"), 1u)
      << "a 1-slot ring under a parked batch must overflow";
  EXPECT_GE(h.counter("ikc.reply.wakeup"), 1u) << "overflow must degrade to wakeups";
  EXPECT_EQ(h.transport->reply_ring_depth(0), 0u);
  EXPECT_EQ(h.transport->reply_ring_capacity(0), 1u) << "capped at 1: depth must not change";
}

TEST(FailureInjection, ReplyRingAutosizesUnderSustainedOverflow) {
  // Same squeeze with autosizing on: repeated ring_full strikes must grow
  // the ring (doubling, capped) so steady-state stops paying the fallback
  // wakeup — and the traffic still completes.
  auto cfg = reply_fault_cfg();
  cfg.ikc_reply_depth = 1;
  cfg.ikc_reply_autosize_threshold = 2;
  cfg.ikc_reply_max_depth = 8;
  ReplyFaultHarness h(cfg);
  std::vector<Errno> errs;
  std::vector<long> vals;
  constexpr int kOps = 24;
  for (int i = 0; i < kOps; ++i) h.submit(i, from_us(40), errs, vals);
  h.engine.run();
  ASSERT_EQ(vals.size(), static_cast<std::size_t>(kOps));
  for (int i = 0; i < kOps; ++i) EXPECT_EQ(errs[static_cast<std::size_t>(i)], Errno::ok);
  EXPECT_GE(h.counter("ikc.reply.autosize_grow"), 1u)
      << "sustained overflow must trigger a grow";
  EXPECT_GT(h.transport->reply_ring_capacity(0), 1u);
  EXPECT_LE(h.transport->reply_ring_capacity(0), 8u) << "growth must respect the cap";
  EXPECT_EQ(h.transport->reply_ring_depth(0), 0u) << "notifications must be reclaimed";
}

TEST(FailureInjection, ConsumerDeathDropsCompletionsWithoutWedgingTheLoop) {
  // The LWK process owning channel 0 dies mid-traffic: in-flight offloads
  // resolve to EINTR, queued entries are skipped as dead, completions the
  // loop already owes are dropped with a counter — and the loop itself
  // keeps serving fresh traffic afterwards.
  auto cfg = reply_fault_cfg();
  ReplyFaultHarness h(cfg);
  std::vector<Errno> errs;
  std::vector<long> vals;
  constexpr int kOps = 4;
  for (int i = 0; i < kOps; ++i) h.submit(i, from_us(40), errs, vals);
  h.engine.schedule_after(from_us(10), [&] { h.transport->inject_consumer_death(0); });
  h.engine.run();
  ASSERT_EQ(errs.size(), static_cast<std::size_t>(kOps));
  for (int i = 0; i < kOps; ++i)
    EXPECT_EQ(errs[static_cast<std::size_t>(i)], Errno::eintr)
        << "op " << i << " must observe its consumer's death";
  EXPECT_GE(h.counter("ikc.reply.consumer_dead") + h.counter("ikc.ring.dead_skip"), 1u)
      << "the service side must account the dropped work";

  // The channel is reusable: a fresh consumer's offload completes normally.
  h.submit(99, from_us(5), errs, vals);
  h.engine.run();
  ASSERT_EQ(vals.size(), static_cast<std::size_t>(kOps) + 1);
  EXPECT_EQ(errs.back(), Errno::ok);
  EXPECT_EQ(vals.back(), 99);
  EXPECT_GT(h.transport->loop_served(0), 0u);
}

TEST(FailureInjection, ConsumerDeathSettlesEachRequestByWhereItIs) {
  // One channel, one loop, three requests caught at three stages when the
  // consumer dies:
  //   C — completion already posted, consumer parked behind a lost doorbell:
  //       not taken back; C returns its value on the ikc_reply_deadline
  //       self-drain;
  //   A — claimed and in service: EINTR, its completion dropped
  //       (ikc.reply.consumer_dead);
  //   B — still queued behind A: EINTR, skipped at pop (ikc.ring.dead_skip).
  auto cfg = reply_fault_cfg();
  cfg.ikc_reply_deadline = from_us(1000);
  ReplyFaultHarness h(cfg);
  h.transport->inject_reply_doorbell_loss(0, true);

  std::vector<Errno> c_err, a_err, b_err;
  std::vector<long> c_val, a_val, b_val;
  Time c_done = -1;
  h.submit(1, from_us(5), c_err, c_val);  // C: outlives the 2-us poll budget
  sim::spawn(h.engine, [](ReplyFaultHarness& hh, Time& out,
                          const std::vector<long>& vals) -> sim::Task<> {
    while (vals.empty()) co_await hh.engine.delay(from_us(1));
    out = hh.engine.now();
  }(h, c_done, c_val));

  bool died = false;
  h.engine.schedule_after(from_us(100), [&] {
    // C has posted into a lost doorbell and is parked; the loop is idle.
    ASSERT_EQ(h.counter("ikc.reply.doorbell_lost"), 1u);
    ASSERT_TRUE(c_val.empty());
    sim::spawn(h.engine, [](ReplyFaultHarness& hh, bool& dead, std::vector<Errno>& es,
                            std::vector<long>& vs, std::vector<Errno>& bes,
                            std::vector<long>& bvs) -> sim::Task<> {
      auto r = co_await hh.transport->offload(  // A
          [&]() -> sim::Task<Result<long>> {
            hh.submit(3, from_us(5), bes, bvs);  // B queues behind A
            co_await hh.engine.delay(from_us(30));
            EXPECT_EQ(hh.transport->channel_depth(0), 1u) << "B must be queued";
            hh.transport->inject_consumer_death(0);
            dead = true;
            co_await hh.engine.delay(from_us(30));
            co_return 2L;
          },
          ikc::Priority::bulk, 0);
      es.push_back(r.error());
      vs.push_back(r.ok() ? *r : -1L);
    }(h, died, a_err, a_val, b_err, b_val));
  });
  h.engine.run();

  ASSERT_TRUE(died);
  ASSERT_EQ(c_err.size(), 1u);
  ASSERT_EQ(a_err.size(), 1u);
  ASSERT_EQ(b_err.size(), 1u);
  EXPECT_EQ(c_err[0], Errno::ok) << "a posted completion survives the death";
  EXPECT_EQ(c_val[0], 1);
  EXPECT_GE(c_done, cfg.ikc_reply_deadline) << "C is recovered by the self-drain";
  EXPECT_EQ(h.counter("ikc.reply.self_drain"), 1u);
  EXPECT_EQ(a_err[0], Errno::eintr);
  EXPECT_EQ(h.counter("ikc.reply.consumer_dead"), 1u);
  EXPECT_EQ(b_err[0], Errno::eintr);
  EXPECT_EQ(h.counter("ikc.ring.dead_skip"), 1u);
  EXPECT_EQ(h.counter("ikc.ring.stale_skip"), 0u);
  EXPECT_EQ(h.transport->loop_served(0), 2u) << "C and A ran; B never did";
}

TEST(FairnessHarness, JainIndexScoresAllZeroSharesAsStarvation) {
  // A window in which no tenant completed anything is universal starvation,
  // not perfect fairness: it must score 0.0, never slip past a jain gate.
  EXPECT_DOUBLE_EQ(bench::jain_index({}), 1.0);
  EXPECT_DOUBLE_EQ(bench::jain_index({0.0, 0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(bench::jain_index({5.0, 5.0}), 1.0);
  EXPECT_NEAR(bench::jain_index({1.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
}

TEST(FailureInjection, FloodingTenantIsThrottledAloneVictimsStayBounded) {
  // Misbehaving-tenant rung: job 0 floods its channel with 12 saturating
  // streams while 7 victims run a normal backlogged profile. With per-job
  // in-flight credits (2/job) and the weighted-fair drain, the flooder —
  // and only the flooder — must be throttled (EAGAIN / credit waits), and
  // the victims' tail queueing must stay within 2x of the same run with no
  // flooder present at all.
  constexpr int kJobs = 8;
  pd::os::Config cfg;
  cfg.ikc_mode = pd::os::IkcMode::ring;
  cfg.ikc_channels = kJobs;
  cfg.ikc_numa_pin = false;
  cfg.ikc_job_credits = 2;
  cfg.ikc_deadline = from_ms(500.0);  // saturation queueing is the point
  auto specs = [&](bool with_flooder) {
    std::vector<bench::JobSpec> s(kJobs);
    for (int j = 0; j < kJobs; ++j) {
      s[static_cast<std::size_t>(j)].submitters = (j == 0) ? (with_flooder ? 12 : 0) : 2;
      if (j == 0) s[static_cast<std::size_t>(j)].gap = from_us(0);
    }
    return s;
  };
  const Dur horizon = from_ms(3.0);
  const auto base = bench::run_fairness_storm(cfg, specs(false), horizon);
  const auto flood = bench::run_fairness_storm(cfg, specs(true), horizon);

  auto victim_worst_p95 = [](const bench::FairnessResult& r) {
    double worst = 0;
    for (const auto& o : r.jobs)
      if (o.job != 0 && o.queue.p95_us > worst) worst = o.queue.p95_us;
    return worst;
  };
  const double base_p95 = victim_worst_p95(base);
  const double flood_p95 = victim_worst_p95(flood);
  ASSERT_GT(base_p95, 0.0) << "baseline victims must be queueing at all";
  EXPECT_LE(flood_p95, 2.0 * base_p95)
      << "victim tail queueing must stay bounded under the flood";

  const auto& flooder = flood.jobs[0];
  EXPECT_GT(flooder.eagain + flooder.credit_waits, 0u)
      << "the credit gate must throttle the flooder";
  EXPECT_GT(flooder.completed, 0u) << "throttled, not starved";
  for (const auto& o : flood.jobs) {
    if (o.job == 0) continue;
    EXPECT_EQ(o.eagain, 0u) << "victim " << o.job << " must never see EAGAIN";
    EXPECT_EQ(o.credit_waits, 0u)
        << "victim " << o.job << " fits inside its own credit cap";
    EXPECT_GT(o.completed, 0u) << "victim " << o.job << " must keep completing";
  }
}

TEST(FailureInjection, TenantNeverDrainingRepliesOnlyHurtsItself) {
  // A tenant that never drains its replies (its completion doorbells are
  // dropped, so notifications pile up in its reply ring): its own offloads
  // must recover through the self-drain watchdog instead of hanging, the
  // neighbour sharing the loop must complete undisturbed on plain
  // doorbells, and the service loop must stay healthy.
  auto cfg = reply_fault_cfg();
  cfg.ikc_channels = 2;
  cfg.ikc_reply_deadline = from_us(300);  // bound the self-drain delay
  ReplyFaultHarness h(cfg);
  h.transport->inject_reply_doorbell_loss(0, true);

  std::vector<Errno> bad_errs, good_errs;
  std::vector<long> bad_vals, good_vals;
  constexpr int kOps = 6;
  // work > reply_poll_budget (2us): consumers park, so completion depends
  // on the doorbell — the exact signal the misbehaving tenant loses.
  for (int i = 0; i < kOps; ++i) {
    h.submit_on(0, /*job=*/7, i, from_us(40), bad_errs, bad_vals);
    h.submit_on(1, /*job=*/8, 100 + i, from_us(40), good_errs, good_vals);
  }
  h.engine.run();

  ASSERT_EQ(bad_errs.size(), static_cast<std::size_t>(kOps));
  ASSERT_EQ(good_errs.size(), static_cast<std::size_t>(kOps));
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(bad_errs[static_cast<std::size_t>(i)], Errno::ok)
        << "lost doorbells must degrade to self-drain, never lose op " << i;
    EXPECT_EQ(good_errs[static_cast<std::size_t>(i)], Errno::ok);
  }
  EXPECT_GE(h.counter("ikc.reply.doorbell_lost"), 1u)
      << "the fault must actually have fired";
  EXPECT_GE(h.counter("ikc.reply.self_drain"), 1u)
      << "parked consumers behind lost doorbells recover via the watchdog";
  for (int l = 0; l < h.transport->num_loops(); ++l)
    EXPECT_FALSE(h.transport->loop_suspect(l)) << "loop " << l << " stays healthy";

  // The misbehaving tenant repaired (doorbells restored): traffic on its
  // channel goes back to the normal wakeup path.
  h.transport->inject_reply_doorbell_loss(0, false);
  const auto self_drains = h.counter("ikc.reply.self_drain");
  h.submit_on(0, /*job=*/7, 999, from_us(40), bad_errs, bad_vals);
  h.engine.run();
  ASSERT_EQ(bad_vals.size(), static_cast<std::size_t>(kOps) + 1);
  EXPECT_EQ(bad_errs.back(), Errno::ok);
  EXPECT_EQ(bad_vals.back(), 999);
  EXPECT_EQ(h.counter("ikc.reply.self_drain"), self_drains)
      << "with doorbells back no watchdog recovery is needed";
}

TEST(FailureInjection, RepartitionUnderFloodLosesNoOffloads) {
  // Elastic rung (§8.7): service loops retire and attach repeatedly while a
  // flood is in flight. Every offload must resolve exactly once — nothing
  // lost in a drained ring, nothing double-executed by a re-shard — and the
  // skip accounting must balance: with no timeouts and no consumer deaths,
  // the drain-before-handover leaves zero stale or dead entries behind.
  os::Config cfg;
  cfg.ikc_mode = os::IkcMode::ring;
  cfg.linux_service_cpus = 3;
  cfg.elastic_max_service_cpus = 4;
  cfg.ikc_channels = 8;
  ReplyFaultHarness h(cfg);

  std::vector<Errno> errs;
  std::vector<long> vals;
  std::uint64_t executed = 0;
  constexpr int kOps = 160;
  for (int i = 0; i < kOps; ++i) {
    sim::spawn(h.engine, [](ReplyFaultHarness& hh, int ch, long tag, std::uint64_t& ex,
                            std::vector<Errno>& es, std::vector<long>& vs) -> sim::Task<> {
      auto r = co_await hh.transport->offload(
          [&hh, tag, &ex]() -> sim::Task<Result<long>> {
            co_await hh.engine.delay(from_us(3));
            ++ex;
            co_return tag;
          },
          ikc::Priority::bulk, ch);
      es.push_back(r.error());
      vs.push_back(r.ok() ? *r : -1L);
    }(h, i % cfg.ikc_channels, i, executed, errs, vals));
    if (i % 16 == 15) {
      // Interleave submissions with a shrink/grow cycle mid-flood.
      sim::spawn(h.engine, [](ReplyFaultHarness& hh, Dur at) -> sim::Task<> {
        co_await hh.engine.delay(at);
        const Status down = co_await hh.transport->retire_loop();
        EXPECT_TRUE(down.ok());
        co_await hh.engine.delay(from_us(30));
        const Status up = co_await hh.transport->attach_loop();
        EXPECT_TRUE(up.ok());
      }(h, from_us(20 * (i / 16 + 1))));
    }
  }
  h.engine.run();

  ASSERT_EQ(errs.size(), static_cast<std::size_t>(kOps));
  for (int i = 0; i < kOps; ++i)
    EXPECT_EQ(errs[static_cast<std::size_t>(i)], Errno::ok) << "op " << i;
  EXPECT_EQ(executed, static_cast<std::uint64_t>(kOps))
      << "every offload executed exactly once across the repartitions";
  std::vector<bool> seen(kOps, false);
  for (long v : vals) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, static_cast<long>(kOps));
    EXPECT_FALSE(seen[static_cast<std::size_t>(v)]) << "tag " << v << " returned twice";
    seen[static_cast<std::size_t>(v)] = true;
  }

  EXPECT_GE(h.counter("ikc.elastic.loop_retired"), 1u);
  EXPECT_EQ(h.counter("ikc.elastic.loop_retired"), h.counter("ikc.elastic.loop_attached"));
  EXPECT_EQ(h.transport->active_loops(), 3);
  // Skip accounting balances: a lossless drain leaves no entry to skip.
  EXPECT_EQ(h.counter("ikc.ring.timeout"), 0u);
  EXPECT_EQ(h.counter("ikc.ring.degraded"), 0u);
  EXPECT_EQ(h.counter("ikc.ring.stale_skip"), 0u)
      << "a retiring loop must hand its entries over, not let them time out";
  EXPECT_EQ(h.counter("ikc.ring.dead_skip"), 0u);
}

TEST(FailureInjection, ConsumerDeathDuringRepartitionIsAccountedNotLost) {
  // Harsher elastic rung: a consumer dies while its loop is being retired.
  // The dead channel's ops resolve to EINTR and land in dead_skip (or the
  // reply-side consumer_dead counter); every other channel's ops complete
  // normally across the handover; the transport ends healthy.
  os::Config cfg;
  cfg.ikc_mode = os::IkcMode::ring;
  cfg.linux_service_cpus = 2;
  cfg.ikc_channels = 4;
  ReplyFaultHarness h(cfg);

  std::vector<Errno> dead_errs, live_errs;
  std::vector<long> dead_vals, live_vals;
  constexpr int kOps = 8;
  for (int i = 0; i < kOps; ++i) {
    h.submit_on(0, /*job=*/1, i, from_us(40), dead_errs, dead_vals);
    h.submit_on(1, /*job=*/2, 100 + i, from_us(40), live_errs, live_vals);
  }
  h.engine.schedule_after(from_us(10), [&] { h.transport->inject_consumer_death(0); });
  sim::spawn(h.engine, [](ReplyFaultHarness& hh) -> sim::Task<> {
    co_await hh.engine.delay(from_us(15));
    const Status s = co_await hh.transport->retire_loop();
    EXPECT_TRUE(s.ok());
  }(h));
  h.engine.run();

  ASSERT_EQ(dead_errs.size(), static_cast<std::size_t>(kOps));
  ASSERT_EQ(live_errs.size(), static_cast<std::size_t>(kOps));
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(dead_errs[static_cast<std::size_t>(i)], Errno::eintr)
        << "dead-channel op " << i << " must observe the death, not vanish";
    EXPECT_EQ(live_errs[static_cast<std::size_t>(i)], Errno::ok)
        << "live-channel op " << i << " must survive the concurrent retire";
  }
  EXPECT_GE(h.counter("ikc.reply.consumer_dead") + h.counter("ikc.ring.dead_skip"), 1u)
      << "the dropped work must be accounted";
  EXPECT_EQ(h.counter("ikc.ring.stale_skip"), 0u);
  EXPECT_EQ(h.transport->active_loops(), 1);

  // The shrunk transport still serves both channels.
  h.submit_on(0, /*job=*/1, 777, from_us(5), dead_errs, dead_vals);
  h.submit_on(1, /*job=*/2, 888, from_us(5), live_errs, live_vals);
  h.engine.run();
  EXPECT_EQ(dead_errs.back(), Errno::ok);
  EXPECT_EQ(dead_vals.back(), 777);
  EXPECT_EQ(live_errs.back(), Errno::ok);
  EXPECT_EQ(live_vals.back(), 888);
}

TEST(FailureInjection, BindRejectsModuleMissingAField) {
  // Ship a module whose debug info lacks a structure the PicoDriver
  // needs: bind must fail with ENOENT and install nothing.
  sim::Engine engine;
  os::Config cfg;
  os::LinuxKernel linux_kernel(engine, cfg);
  os::Ihk ihk(engine, cfg, linux_kernel);
  os::McKernel mck(engine, cfg, ihk, true);

  dwarf::InfoBuilder b;
  auto u32 = b.add_base_type("unsigned int", 4, dwarf::DW_ATE_unsigned);
  b.add_struct("unrelated", 8, {{"x", u32, 0}});
  dwarf::ModuleBinary module;
  module.set_debug_info(b.build("p", "m"));

  auto binding = pico::PicoBinding::bind(mck, linux_kernel, module,
                                         {{"sdma_state", {"current_state"}}});
  EXPECT_EQ(binding.error(), Errno::enoent);
}

TEST(FailureInjection, BindRejectsCorruptDebugInfo) {
  sim::Engine engine;
  os::Config cfg;
  os::LinuxKernel linux_kernel(engine, cfg);
  os::Ihk ihk(engine, cfg, linux_kernel);
  os::McKernel mck(engine, cfg, ihk, true);

  dwarf::ModuleBinary module;
  module.set_section(".debug_abbrev", {0xFF, 0xFF, 0xFF});
  module.set_section(".debug_info", {0x01, 0x02});
  auto binding = pico::PicoBinding::bind(mck, linux_kernel, module,
                                         {{"sdma_state", {"current_state"}}});
  EXPECT_FALSE(binding.ok());
}

TEST(FailureInjection, BindRejectsMissingDebugSections) {
  sim::Engine engine;
  os::Config cfg;
  os::LinuxKernel linux_kernel(engine, cfg);
  os::Ihk ihk(engine, cfg, linux_kernel);
  os::McKernel mck(engine, cfg, ihk, true);
  dwarf::ModuleBinary stripped;  // a stripped module: no debug info at all
  auto binding =
      pico::PicoBinding::bind(mck, linux_kernel, stripped, {{"sdma_state", {"x"}}});
  EXPECT_EQ(binding.error(), Errno::enoent);
}

/// The module `spec`'s baseline release ships once `edit` has changed its
/// struct `sname`: debug info that no longer matches the driver's own table.
template <typename Edit>
dwarf::ModuleBinary ship_edited(dwarf::LayoutSpec spec, const std::string& sname, Edit edit) {
  for (dwarf::StructDef& s : spec.structs)
    if (s.name == sname) edit(s);
  return dwarf::LayoutTable::for_version(spec, spec.releases.front().version)->ship_module();
}

/// `spec` shipped with the field named "<struct>.<field>" by `narrowed`
/// declared a 2-byte integer. The layout still extracts; only the field's
/// width changed.
dwarf::ModuleBinary ship_narrowed(const dwarf::LayoutSpec& spec, const std::string& narrowed) {
  const std::size_t dot = narrowed.find('.');
  return ship_edited(spec, narrowed.substr(0, dot), [&](dwarf::StructDef& s) {
    for (dwarf::FieldDef& f : s.fields)
      if (f.name == narrowed.substr(dot + 1)) f = {f.name, f.offset, 2, "u16"};
  });
}

/// HfiPicoDriver::create() against the driver's module re-shipped with
/// `narrowed` declared 2 bytes wide; Errno::ok when it binds.
Errno hfi_create_with_narrowed(const std::string& narrowed) {
  sim::Engine engine;
  os::Config cfg;
  hw::Fabric fabric(engine, 1);
  hw::HfiDevice device(engine, fabric, 0);
  os::LinuxKernel linux_kernel(engine, cfg);
  hfi::HfiDriver driver(linux_kernel, device, "10.8-0");
  os::Ihk ihk(engine, cfg, linux_kernel);
  os::McKernel mck(engine, cfg, ihk, true);
  // The driver's module member is not const; only its getter is.
  const_cast<dwarf::ModuleBinary&>(driver.module_binary()) =
      ship_narrowed(hfi::layout_spec(), narrowed);
  auto pico = pico::HfiPicoDriver::create(mck, driver);
  return pico.ok() ? Errno::ok : pico.error();
}

/// DoomPicoDriver::create() against the driver's module re-shipped with
/// `narrowed` declared 2 bytes wide; Errno::ok when it binds.
Errno doom_create_with_narrowed(const std::string& narrowed) {
  sim::Engine engine;
  os::Config cfg;
  hw::DoomDevice device(engine, 0);
  os::LinuxKernel linux_kernel(engine, cfg);
  doom::DoomDriver driver(linux_kernel, device, "0.9-d6");
  os::Ihk ihk(engine, cfg, linux_kernel);
  os::McKernel mck(engine, cfg, ihk, true);
  const_cast<dwarf::ModuleBinary&>(driver.module_binary()) =
      ship_narrowed(doom::layout_spec(), narrowed);
  auto pico = pico::DoomPicoDriver::create(mck, driver);
  return pico.ok() ? Errno::ok : pico.error();
}

TEST(FailureInjection, HfiFastPathRejectsFieldNarrowerThanItsAccessor) {
  // The re-shipped module binds as is, so each refusal below comes from a
  // width check.
  EXPECT_EQ(hfi_create_with_narrowed(""), Errno::ok);
  // sdma_state.current_state declared 2 bytes: the fast path reads it as a
  // 4-byte enum, which would run past the field. create() must refuse.
  EXPECT_EQ(hfi_create_with_narrowed("sdma_state.current_state"), Errno::einval);
  // sdma_engine.state declared 2 bytes: engine_state() would still read
  // sdma_state.current_state through it, past the member's end.
  EXPECT_EQ(hfi_create_with_narrowed("sdma_engine.state"), Errno::einval);
}

TEST(FailureInjection, DoomFastPathRejectsFieldNarrowerThanItsAccessor) {
  EXPECT_EQ(doom_create_with_narrowed(""), Errno::ok);
  // doom_ctx.dva_next declared 2 bytes: the fast path's 8-byte accessor
  // would read and write 6 bytes past the field. create() must refuse.
  EXPECT_EQ(doom_create_with_narrowed("doom_ctx.dva_next"), Errno::einval);
  // doom_devdata.ring declared 2 bytes: run_state() would still read
  // doom_ringstate.run_state through it, past the member's end.
  EXPECT_EQ(doom_create_with_narrowed("doom_devdata.ring"), Errno::einval);
}

TEST(FailureInjection, HfiFastPathRejectsImageSmallerThanDeclaredStruct) {
  // The module declares hfi1_filedata as 4 KiB with tid_used at offset
  // 4000. The accessor stays inside the declared structure, but the
  // driver's own filedata block is far smaller: the TID fast path must
  // refuse the image instead of reading and writing past the block.
  sim::Engine engine;
  os::Config cfg;
  hw::Fabric fabric(engine, 1);
  hw::HfiDevice device(engine, fabric, 0);
  os::LinuxKernel linux_kernel(engine, cfg);
  hfi::HfiDriver driver(linux_kernel, device, "10.8-0");
  os::Ihk ihk(engine, cfg, linux_kernel);
  os::McKernel mck(engine, cfg, ihk, true);
  ASSERT_LT(driver.layouts().structure("hfi1_filedata")->byte_size, 4000u);
  const_cast<dwarf::ModuleBinary&>(driver.module_binary()) =
      ship_edited(hfi::layout_spec(), "hfi1_filedata", [](dwarf::StructDef& s) {
        s.byte_size = 4096;
        for (dwarf::FieldDef& f : s.fields)
          if (f.name == "tid_used") f.offset = 4000;
      });
  auto pico = pico::HfiPicoDriver::create(mck, driver);
  ASSERT_TRUE(pico.ok());

  mem::PhysMap phys = mem::PhysMap::knl(256_MiB, 1_GiB, 2);
  os::Process proc(mck, phys, 0, 0, 1000);
  Result<long> result = 0L;
  sim::spawn(engine, [](os::Process& p, Result<long>& out) -> sim::Task<> {
    auto fd = co_await p.open(hfi::kDeviceName);
    CO_ASSERT_TRUE(fd.ok());
    auto buf = co_await p.mmap_anon(16_KiB);
    CO_ASSERT_TRUE(buf.ok());
    hfi::TidUpdateArgs args;
    args.vaddr = *buf;
    args.length = 16_KiB;
    out = co_await p.ioctl(*fd, hfi::kTidUpdate, &args);
  }(proc, result));
  engine.run();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error(), Errno::einval);
  EXPECT_EQ((*pico)->fast_tid_updates(), 1u) << "the refusal must come from the fast path";
}

TEST(FailureInjection, DoomFastPathRejectsImageSmallerThanDeclaredStruct) {
  // Same hazard on the second device class: doom_ctx declared 4 KiB with
  // batches_submitted at offset 4000, past the driver's own ctx block.
  sim::Engine engine;
  os::Config cfg;
  hw::DoomDevice device(engine, 0);
  os::LinuxKernel linux_kernel(engine, cfg);
  doom::DoomDriver driver(linux_kernel, device, "0.9-d6");
  os::Ihk ihk(engine, cfg, linux_kernel);
  os::McKernel mck(engine, cfg, ihk, true);
  ASSERT_LT(driver.layouts().structure("doom_ctx")->byte_size, 4000u);
  const_cast<dwarf::ModuleBinary&>(driver.module_binary()) =
      ship_edited(doom::layout_spec(), "doom_ctx", [](dwarf::StructDef& s) {
        s.byte_size = 4096;
        for (dwarf::FieldDef& f : s.fields)
          if (f.name == "batches_submitted") f.offset = 4000;
      });
  auto pico = pico::DoomPicoDriver::create(mck, driver);
  ASSERT_TRUE(pico.ok());

  mem::PhysMap phys = mem::PhysMap::knl(256_MiB, 1_GiB, 2);
  os::Process proc(mck, phys, 0, 0, 1000);
  Result<long> result = 0L;
  sim::spawn(engine, [](os::Process& p, Result<long>& out) -> sim::Task<> {
    auto fd = co_await p.open(doom::kDeviceName);
    CO_ASSERT_TRUE(fd.ok());
    CO_ASSERT_TRUE((co_await p.ioctl(*fd, doom::kDoomCreateCtx, nullptr)).ok());
    auto buf = co_await p.mmap_anon(64_KiB);
    CO_ASSERT_TRUE(buf.ok());
    doom::DoomSubmitArgs args;
    args.cmds.push_back({static_cast<std::uint32_t>(hw::DoomOp::copy_rect), *buf, 0, 64_KiB});
    out = co_await p.ioctl(*fd, doom::kDoomSubmitBatch, &args);
  }(proc, result));
  engine.run();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error(), Errno::einval);
  EXPECT_EQ((*pico)->fast_submits(), 1u) << "the refusal must come from the fast path";
}

TEST(FailureInjection, OriginalAllocatorRejectsIrqSideFree) {
  // Boot the LWK with the unified layout but the *original* allocator
  // policy: the IRQ-side kfree must fail and the block must leak rather
  // than corrupt (the exact §3.3 hazard).
  mem::KernelHeap heap({60, 61}, mem::ForeignFreePolicy::fail);
  auto block = heap.kmalloc(192, 60);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(heap.kfree(*block, /*linux cpu=*/1).error(), Errno::eperm);
  EXPECT_EQ(heap.live_blocks(), 1u);
  EXPECT_EQ(heap.stats().rejected_frees, 1u);
  // The owning core can still clean up.
  EXPECT_TRUE(heap.kfree(*block, 60).ok());
}

TEST(FailureInjection, WritevOnUnmappedBufferFaults) {
  mpirt::ClusterOptions copts;
  copts.nodes = 1;
  copts.mode = os::OsMode::linux;
  copts.mcdram_bytes = 256ull << 20;
  copts.ddr_bytes = 1ull << 30;
  mpirt::Cluster cluster(copts);
  auto proc = cluster.make_process(0, 0);
  sim::spawn(cluster.engine(), [](os::Process& p) -> sim::Task<> {
    auto fd = co_await p.open(hfi::kDeviceName);
    CO_ASSERT_TRUE(fd.ok());
    hfi::SdmaReqHeader hdr;
    hdr.wire.src_node = 0;
    hdr.wire.dst_node = 0;
    hdr.wire.dst_ctxt = 0;
    std::vector<os::IoVec> iov{
        os::IoVec{reinterpret_cast<mem::VirtAddr>(&hdr), sizeof hdr},
        os::IoVec{0xDEAD'0000, 64ull << 10}};  // never mapped
    auto r = co_await p.writev(*fd, std::move(iov));
    EXPECT_EQ(r.error(), Errno::efault);
    // Failed pin must not leak partial pins.
    EXPECT_EQ(p.as().pinned_frame_count(), 0u);
  }(*proc));
  cluster.engine().run();
}

TEST(FailureInjection, TidUpdateOnUnmappedBufferFaults) {
  mpirt::ClusterOptions copts;
  copts.nodes = 1;
  copts.mode = os::OsMode::mckernel_hfi;
  copts.mcdram_bytes = 256ull << 20;
  copts.ddr_bytes = 1ull << 30;
  mpirt::Cluster cluster(copts);
  auto proc = cluster.make_process(0, 0);
  sim::spawn(cluster.engine(), [](os::Process& p, hw::HfiDevice& dev) -> sim::Task<> {
    auto fd = co_await p.open(hfi::kDeviceName);
    CO_ASSERT_TRUE(fd.ok());
    hfi::TidUpdateArgs args;
    args.vaddr = 0xBAD0'0000;
    args.length = 64ull << 10;
    auto r = co_await p.ioctl(*fd, hfi::kTidUpdate, &args);
    EXPECT_EQ(r.error(), Errno::efault);
    EXPECT_EQ(dev.rcv_array().in_use(), 0u);
  }(*proc, *cluster.node(0).device));
  cluster.engine().run();
}

}  // namespace
}  // namespace pd
