// Paper-scale DES engine benchmark: calendar-queue scheduler and
// allocation-free event path.
//
// Three sections:
//   engine_loop — raw scheduler throughput: 64 self-rescheduling event
//                 chains with occasional far-future spikes. Steady-state
//                 host heap allocations are counted with a replaced global
//                 operator new; the acceptance bar is <= 0.01 allocs/event
//                 (the old heap-of-std::function engine paid ~2).
//   pingpong    — the Figure-4 IMB ping-pong point at 4 MB on the full
//                 stack, reporting simulated bandwidth (deterministic,
//                 gated) and host events/sec (informational).
//   sweep       — UMT weak scaling to >= 256 simulated nodes on the
//                 single event queue: simulated runtime (deterministic,
//                 gated), host events/sec and engine-attributed host
//                 allocations per event (<= 0.01 at the 256-node point).
//                 The point's JSON key is `legacy`, and its runtime
//                 `legacy_sim_runtime_sec`, so the committed baseline and
//                 the nightly trend keep one series.
//
// Emits BENCH_sim_scale.json for tools/check_bench.py --suite sim_scale.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/apps/proxies.hpp"
#include "src/common/units.hpp"
#include "src/mpirt/world.hpp"

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// Count every host heap allocation. Replacing the global allocation
// functions is the only way to see container/coroutine-frame traffic
// without instrumenting each call site.
void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace pd;
using namespace pd::time_literals;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// --------------------------------------------------------------------------
// Section 1: raw engine loop.
// --------------------------------------------------------------------------

struct LoopResult {
  std::uint64_t events = 0;
  double wall_sec = 0;
  double events_per_sec = 0;
  double steady_allocs_per_event = 0;  // replaced-operator-new truth
  std::uint64_t pool_chunks = 0;
  std::uint64_t calendar_rebuilds = 0;
  std::uint64_t overflow_parked = 0;
};

/// One self-rescheduling chain. Captured by value into the event node's
/// inline buffer: 32 bytes, trivially copyable — the steady state recycles
/// pooled nodes and never touches the host heap.
struct Chain {
  sim::Engine* e;
  std::uint64_t* remaining;
  std::uint64_t rng;
  std::uint64_t fired;
  void operator()() {
    if (*remaining == 0) return;
    --*remaining;
    ++fired;
    rng = mix(rng);
    // Mostly near-term churn; every 8192th hop is a multi-second spike that
    // detours through the overflow heap.
    const Dur d = (fired % 8192 == 0)
                      ? from_ms(2'000) + static_cast<Dur>(rng % 1000)
                      : static_cast<Dur>(rng % static_cast<std::uint64_t>(50_ns));
    e->schedule_after(d, *this);
  }
};

LoopResult run_engine_loop(std::uint64_t events) {
  constexpr int kChains = 64;
  sim::Engine engine;

  // Warmup populates the node pool and settles the calendar geometry.
  std::uint64_t warm = events / 10;
  for (int c = 0; c < kChains; ++c)
    engine.schedule_after(static_cast<Dur>(c), Chain{&engine, &warm, mix(c + 1), 0});
  engine.run();

  std::uint64_t budget = events;
  for (int c = 0; c < kChains; ++c)
    engine.schedule_after(static_cast<Dur>(c), Chain{&engine, &budget, mix(c + 101), 0});
  const std::uint64_t events0 = engine.events_processed();
  const std::uint64_t allocs0 = g_heap_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  engine.run();
  LoopResult r;
  r.wall_sec = seconds_since(t0);
  r.events = engine.events_processed() - events0;
  const std::uint64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) - allocs0;
  r.events_per_sec = r.wall_sec > 0 ? static_cast<double>(r.events) / r.wall_sec : 0;
  r.steady_allocs_per_event =
      r.events > 0 ? static_cast<double>(allocs) / static_cast<double>(r.events) : 0;
  r.pool_chunks = engine.stats().pool_chunks;
  r.calendar_rebuilds = engine.stats().calendar_rebuilds;
  r.overflow_parked = engine.stats().overflow_parked;
  return r;
}

// --------------------------------------------------------------------------
// Section 2: IMB ping-pong on the full stack (Figure-4 4 MB point).
// --------------------------------------------------------------------------

struct PingPongResult {
  double mb_per_sec = 0;  // simulated — deterministic
  std::uint64_t events = 0;
  double wall_sec = 0;
  double events_per_sec = 0;
};

PingPongResult run_pingpong(std::uint64_t bytes, int iters) {
  mpirt::ClusterOptions copts;
  copts.nodes = 2;
  copts.mode = os::OsMode::mckernel_hfi;
  copts.mcdram_bytes = 512ull << 20;
  copts.ddr_bytes = 1ull << 30;
  mpirt::Cluster cluster(copts);
  mpirt::WorldOptions wopts;
  wopts.ranks_per_node = 1;
  wopts.buf_bytes = 8ull << 20;
  mpirt::MpiWorld world(cluster, wopts);

  struct Shared {
    Time t0 = 0, t1 = 0;
  } shared;
  const auto w0 = std::chrono::steady_clock::now();
  world.run([&](mpirt::Rank& rank) -> sim::Task<> {
    co_await rank.init();
    co_await rank.barrier();
    if (rank.id() == 0) shared.t0 = rank.world().cluster().engine().now();
    for (int i = 0; i < iters; ++i) {
      const int tag = 10 + i;
      if (rank.id() == 0) {
        co_await rank.send(1, tag, bytes);
        co_await rank.recv(1, tag + 1000, bytes);
      } else {
        co_await rank.recv(0, tag, bytes);
        co_await rank.send(0, tag + 1000, bytes);
      }
    }
    if (rank.id() == 0) shared.t1 = rank.world().cluster().engine().now();
    co_await rank.finalize();
  });

  PingPongResult r;
  r.wall_sec = seconds_since(w0);
  r.events = cluster.engine().events_processed();
  r.events_per_sec = r.wall_sec > 0 ? static_cast<double>(r.events) / r.wall_sec : 0;
  const double sec = to_sec(shared.t1 - shared.t0);
  r.mb_per_sec = sec > 0 ? static_cast<double>(bytes) * iters / (sec / 2.0) / 1e6 : 0;
  return r;
}

// --------------------------------------------------------------------------
// Section 3: UMT weak scaling to >= 256 simulated nodes.
// --------------------------------------------------------------------------

struct PointRun {
  int nodes = 0;
  double runtime_sec = 0;  // simulated solve time — deterministic
  std::uint64_t events = 0;
  double wall_sec = 0;
  double events_per_sec = 0;
  double allocs_per_event = 0;  // engine-attributed (pool/box/rebuild/frames)
};

PointRun run_umt_point(int nodes, int rpn) {
  mpirt::ClusterOptions copts;
  copts.nodes = nodes;
  copts.mode = os::OsMode::mckernel_hfi;
  copts.mcdram_bytes = 256ull << 20;
  copts.ddr_bytes = 1ull << 30;
  mpirt::Cluster cluster(copts);
  mpirt::WorldOptions wopts;
  wopts.ranks_per_node = rpn;
  wopts.buf_bytes = 1ull << 20;
  mpirt::MpiWorld world(cluster, wopts);
  apps::UmtParams umt;
  umt.steps = 1;

  const auto frames0 = sim::detail::frame_pool_counters();
  const auto t0 = std::chrono::steady_clock::now();
  world.run([umt](mpirt::Rank& r) { return apps::umt_rank(r, umt); });

  PointRun p;
  p.nodes = nodes;
  p.wall_sec = seconds_since(t0);
  p.runtime_sec = to_sec(world.max_solve());
  p.events = cluster.engine().events_processed();
  p.events_per_sec = p.wall_sec > 0 ? static_cast<double>(p.events) / p.wall_sec : 0;
  const sim::Engine::Stats stats = cluster.engine().stats();
  const auto frames1 = sim::detail::frame_pool_counters();
  const std::uint64_t engine_allocs = stats.pool_chunks + stats.boxed_callbacks +
                                      stats.calendar_rebuilds +
                                      (frames1.host_allocs - frames0.host_allocs);
  p.allocs_per_event =
      p.events > 0 ? static_cast<double>(engine_allocs) / static_cast<double>(p.events) : 0;
  return p;
}

}  // namespace

int main() {
  using pd::bench::quick_mode;
  pd::bench::print_banner(
      "Sim-scale — calendar-queue DES engine at paper scale",
      "O(1) scheduling, allocation-free events, >= 256-node runs");

  // Section 1 — raw engine loop.
  const std::uint64_t loop_events = quick_mode() ? 200'000 : 1'000'000;
  const LoopResult loop = run_engine_loop(loop_events);
  std::printf("  engine loop: %llu events in %.3f s — %.0f events/s, "
              "%.4f host allocs/event (steady state)\n",
              static_cast<unsigned long long>(loop.events), loop.wall_sec,
              loop.events_per_sec, loop.steady_allocs_per_event);
  std::printf("               %llu pool chunks, %llu calendar rebuilds, "
              "%llu overflow parks\n",
              static_cast<unsigned long long>(loop.pool_chunks),
              static_cast<unsigned long long>(loop.calendar_rebuilds),
              static_cast<unsigned long long>(loop.overflow_parked));

  // Section 2 — ping-pong.
  const std::uint64_t pp_bytes = 4ull << 20;
  const int pp_iters = quick_mode() ? 5 : 20;
  const PingPongResult pp = run_pingpong(pp_bytes, pp_iters);
  std::printf("  ping-pong 4MB (mckernel_hfi): %.1f MB/s simulated, "
              "%llu events, %.0f events/s host\n",
              pp.mb_per_sec, static_cast<unsigned long long>(pp.events),
              pp.events_per_sec);

  // Section 3 — UMT sweep. Quick mode keeps the small point and the
  // paper-scale 256-node point (the gate requires >= 256 nodes).
  const int rpn = 8;
  std::vector<int> node_counts;
  for (int n : {16, 64, 256})
    if (!quick_mode() || n != 64) node_counts.push_back(n);

  std::vector<PointRun> sweep;
  pd::TextTable table({"Nodes", "Ranks", "Sim s", "Events", "Wall s", "ev/s", "Allocs/ev"});
  for (int n : node_counts) {
    const PointRun& p = sweep.emplace_back(run_umt_point(n, rpn));
    table.add_row({std::to_string(n), std::to_string(n * rpn),
                   pd::format_double(p.runtime_sec, 4), std::to_string(p.events),
                   pd::format_double(p.wall_sec, 3), pd::format_double(p.events_per_sec, 0),
                   pd::format_double(p.allocs_per_event, 4)});
  }
  std::printf("%s\n", table.to_string().c_str());
  const PointRun& top = sweep.back();

  std::FILE* json = std::fopen("BENCH_sim_scale.json", "w");
  if (json == nullptr) return 1;
  std::fprintf(json,
               "{\n"
               "  \"workload\": {\"quick_mode\": %s, \"max_nodes\": %d, "
               "\"ranks_per_node\": %d, \"umt_steps\": 1},\n"
               "  \"engine_loop\": {\"events\": %llu, \"wall_sec\": %.3f, "
               "\"events_per_sec\": %.0f, \"steady_allocs_per_event\": %.4f, "
               "\"pool_chunks\": %llu, \"calendar_rebuilds\": %llu, "
               "\"overflow_parked\": %llu},\n"
               "  \"pingpong\": {\"bytes\": %llu, \"iters\": %d, \"mb_per_sec\": %.1f, "
               "\"events\": %llu, \"events_per_sec\": %.0f},\n"
               "  \"sweep\": {\n",
               quick_mode() ? "true" : "false", top.nodes, rpn,
               static_cast<unsigned long long>(loop.events), loop.wall_sec,
               loop.events_per_sec, loop.steady_allocs_per_event,
               static_cast<unsigned long long>(loop.pool_chunks),
               static_cast<unsigned long long>(loop.calendar_rebuilds),
               static_cast<unsigned long long>(loop.overflow_parked),
               static_cast<unsigned long long>(pp_bytes), pp_iters, pp.mb_per_sec,
               static_cast<unsigned long long>(pp.events), pp.events_per_sec);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const PointRun& p = sweep[i];
    std::fprintf(json,
                 "    \"n%d\": {\n"
                 "      \"nodes\": %d, \"ranks\": %d, \"legacy_sim_runtime_sec\": %.6f,\n"
                 "      \"legacy\": {\"events\": %llu, \"wall_sec\": %.3f, "
                 "\"events_per_sec\": %.0f, \"allocs_per_event\": %.4f}\n"
                 "    }%s\n",
                 p.nodes, p.nodes, p.nodes * rpn, p.runtime_sec,
                 static_cast<unsigned long long>(p.events), p.wall_sec, p.events_per_sec,
                 p.allocs_per_event, i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(json, "  }\n}\n");
  std::fclose(json);
  std::printf("  wrote BENCH_sim_scale.json\n");

  // Acceptance 1: the event path must be allocation-free in steady state.
  if (loop.steady_allocs_per_event > 0.01) {
    std::printf("  FAIL: engine loop allocates %.4f/event (bar: 0.01)\n",
                loop.steady_allocs_per_event);
    return 1;
  }
  // Acceptance 2: the paper-scale point keeps the engine off the host heap.
  if (top.allocs_per_event > 0.01) {
    std::printf("  FAIL: %d-node run pays %.4f engine allocs/event (bar: 0.01)\n",
                top.nodes, top.allocs_per_event);
    return 1;
  }
  if (pp.mb_per_sec <= 0) {
    std::printf("  FAIL: ping-pong produced no bandwidth\n");
    return 1;
  }
  return 0;
}
