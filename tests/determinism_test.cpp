// Determinism and stress tests: identical seeds must give bit-identical
// simulations (the engine is the reproducibility foundation for every
// number in EXPERIMENTS.md), and randomized task graphs must neither
// deadlock nor leak.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/apps/proxies.hpp"
#include "src/common/units.hpp"

namespace pd {
namespace {

using namespace pd::time_literals;

/// Signature of one run: (simulated duration, events, per-call MPI stats).
struct RunSignature {
  double runtime_sec;
  std::uint64_t events;
  double wait_ms;
  double kernel_ioctl_us;
  std::uint64_t descriptors;

  bool operator==(const RunSignature&) const = default;
};

/// The cluster every signature here runs: UMT, one step, 2 nodes × 8 ranks.
/// Declaration order matters: the world is torn down before its cluster.
struct UmtRun {
  std::unique_ptr<mpirt::Cluster> cluster;
  std::unique_ptr<mpirt::MpiWorld> world;
};

UmtRun run_umt(os::OsMode mode, os::IkcMode ikc = os::IkcMode::direct) {
  mpirt::ClusterOptions copts;
  copts.nodes = 2;
  copts.mode = mode;
  copts.cfg.ikc_mode = ikc;
  copts.mcdram_bytes = 256ull << 20;
  copts.ddr_bytes = 1ull << 30;
  UmtRun run;
  run.cluster = std::make_unique<mpirt::Cluster>(copts);
  mpirt::WorldOptions wopts;
  wopts.ranks_per_node = 8;
  run.world = std::make_unique<mpirt::MpiWorld>(*run.cluster, wopts);
  apps::UmtParams umt;
  umt.steps = 1;
  run.world->run([umt](mpirt::Rank& r) { return apps::umt_rank(r, umt); });
  return run;
}

std::uint64_t total_descriptors(mpirt::Cluster& cluster) {
  std::uint64_t n = 0;
  for (int i = 0; i < cluster.num_nodes(); ++i) n += cluster.node(i).device->total_descriptors();
  return n;
}

RunSignature run_once(os::OsMode mode) {
  const UmtRun run = run_umt(mode);
  mpirt::Cluster& cluster = *run.cluster;
  const mpirt::MpiWorld& world = *run.world;
  RunSignature sig;
  sig.runtime_sec = to_sec(world.max_solve());
  sig.events = cluster.engine().events_processed();
  const mpirt::MpiStatsTable table = world.stats_table();
  const auto* wait = table.row("Waitall");
  sig.wait_ms = wait != nullptr ? wait->time_ms : 0;
  sig.kernel_ioctl_us = cluster.app_kernel_profile().total_us_of("ioctl");
  sig.descriptors = total_descriptors(cluster);
  return sig;
}

TEST(Determinism, IdenticalRunsAreBitIdentical) {
  for (os::OsMode mode :
       {os::OsMode::linux, os::OsMode::mckernel, os::OsMode::mckernel_hfi}) {
    const RunSignature a = run_once(mode);
    const RunSignature b = run_once(mode);
    EXPECT_EQ(a, b) << "nondeterministic simulation under " << to_string(mode);
    EXPECT_GT(a.events, 0u);
  }
}

TEST(Determinism, ModesActuallyDiffer) {
  // Guard against the determinism test passing vacuously (e.g. everything
  // returning zeros): the three OS modes must produce distinct timings.
  const RunSignature l = run_once(os::OsMode::linux);
  const RunSignature m = run_once(os::OsMode::mckernel);
  const RunSignature h = run_once(os::OsMode::mckernel_hfi);
  EXPECT_NE(l.runtime_sec, m.runtime_sec);
  EXPECT_NE(m.runtime_sec, h.runtime_sec);
  EXPECT_GT(m.wait_ms, h.wait_ms);
}

TEST(Determinism, GoldenSignaturesArePinned) {
  // The simulated answer itself, pinned: a refactor of the engine, fabric or
  // runtime that claims to leave results unchanged must reproduce these
  // exact integers (simulated solve time in ps, events, SDMA descriptors).
  struct Golden {
    os::OsMode mode;
    os::IkcMode ikc;
    Dur solve_ps;
    std::uint64_t events;
    std::uint64_t descriptors;
  };
  const Golden goldens[] = {
      {os::OsMode::linux, os::IkcMode::direct, 4272743594, 12535, 7680},
      {os::OsMode::mckernel, os::IkcMode::direct, 4612184816, 15465, 7680},
      {os::OsMode::mckernel_hfi, os::IkcMode::direct, 3439917472, 12533, 3264},
      {os::OsMode::mckernel, os::IkcMode::ring, 4839107808, 43945, 7680},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(std::string(to_string(g.mode)) +
                 (g.ikc == os::IkcMode::ring ? " ikc=ring" : " ikc=direct"));
    const UmtRun run = run_umt(g.mode, g.ikc);
    EXPECT_EQ(run.world->max_solve(), g.solve_ps);
    EXPECT_EQ(run.cluster->engine().events_processed(), g.events);
    EXPECT_EQ(total_descriptors(*run.cluster), g.descriptors);
  }
}

TEST(Stress, RandomTaskGraphDrainsClean) {
  // A few thousand tasks with random delays, channels and resources;
  // everything must complete and the engine must drain.
  sim::Engine engine;
  Rng rng(2024);
  sim::Resource pool(engine, 3);
  sim::Channel<int> pipe(engine);
  int produced = 0, consumed = 0, workers_done = 0;

  constexpr int kProducers = 40;
  constexpr int kItemsPer = 25;
  for (int p = 0; p < kProducers; ++p) {
    sim::spawn(engine, [](sim::Engine& e, Rng& r, sim::Channel<int>& ch, int& n) -> sim::Task<> {
      for (int i = 0; i < kItemsPer; ++i) {
        co_await e.delay(static_cast<Dur>(r.next_below(50'000'000)));
        ch.send(1);
        ++n;
      }
    }(engine, rng, pipe, produced));
  }
  for (int c = 0; c < 10; ++c) {
    sim::spawn(engine, [](sim::Engine& e, sim::Resource& res, sim::Channel<int>& ch,
                          int& n, int& done) -> sim::Task<> {
      for (int i = 0; i < kProducers * kItemsPer / 10; ++i) {
        (void)co_await ch.recv();
        co_await res.acquire();
        co_await e.delay(10'000);
        res.release();
        ++n;
      }
      ++done;
    }(engine, pool, pipe, consumed, workers_done));
  }
  engine.run();
  EXPECT_EQ(produced, kProducers * kItemsPer);
  EXPECT_EQ(consumed, kProducers * kItemsPer);
  EXPECT_EQ(workers_done, 10);
  EXPECT_EQ(engine.live_tasks(), 0);
  EXPECT_EQ(pool.available(), 3u);
  EXPECT_EQ(pipe.pending(), 0u);
}

TEST(Stress, DeepTaskChainsNoStackOverflow) {
  // Symmetric transfer must not build native stack: a 50k-deep chain of
  // awaited child tasks. ASan/TSan instrumentation defeats the tail call
  // that symmetric transfer compiles to, so keep the chain shallow there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  constexpr int kDepth = 1'000;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  constexpr int kDepth = 1'000;
#else
  constexpr int kDepth = 50'000;
#endif
#else
  constexpr int kDepth = 50'000;
#endif
  sim::Engine engine;
  struct Chain {
    static sim::Task<int> step(sim::Engine& e, int depth) {
      if (depth == 0) {
        co_await e.delay(1);
        co_return 0;
      }
      const int below = co_await step(e, depth - 1);
      co_return below + 1;
    }
  };
  int result = -1;
  sim::spawn(engine, [](sim::Engine& e, int& out) -> sim::Task<> {
    out = co_await Chain::step(e, kDepth);
  }(engine, result));
  engine.run();
  EXPECT_EQ(result, kDepth);
}

TEST(Stress, ManyNodesManyRanksSmoke) {
  // 16 nodes x 16 ranks, all three modes, one light step each; exercises
  // construction/teardown at a scale between the unit tests and benches.
  for (os::OsMode mode :
       {os::OsMode::linux, os::OsMode::mckernel, os::OsMode::mckernel_hfi}) {
    mpirt::ClusterOptions copts;
    copts.nodes = 16;
    copts.mode = mode;
    copts.mcdram_bytes = 256ull << 20;
    copts.ddr_bytes = 1ull << 30;
    mpirt::Cluster cluster(copts);
    mpirt::WorldOptions wopts;
    wopts.ranks_per_node = 16;
    wopts.buf_bytes = 1ull << 20;
    mpirt::MpiWorld world(cluster, wopts);
    int done = 0;
    world.run([&](mpirt::Rank& rank) -> sim::Task<> {
      co_await rank.init();
      co_await rank.allreduce(4096);
      const int peer = (rank.id() + 16 * 8) % 256;
      if (peer != rank.id()) {
        auto r = rank.irecv(peer, 1, 96ull << 10);
        auto s = rank.isend(peer, 1, 96ull << 10);
        co_await rank.wait(std::move(s));
        co_await rank.wait(std::move(r));
      }
      co_await rank.barrier();
      co_await rank.finalize();
      ++done;
    });
    EXPECT_EQ(done, 256) << to_string(mode);
    // No TID leaks anywhere.
    for (int n = 0; n < 16; ++n)
      EXPECT_EQ(cluster.node(n).device->rcv_array().in_use(), 0u);
  }
}

}  // namespace
}  // namespace pd
